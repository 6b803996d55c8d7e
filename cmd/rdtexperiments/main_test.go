package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestRunQuickWithCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-quick", "-csv", dir}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"R = forced/basic in the random environment",
		"R = forced/basic in the client-server environment",
		"Forced-checkpoint reduction vs FDAS",
		"Piggybacked control information",
		"Total rollback depth",
		"ablation",
		"Corollary 4.5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, file := range []string{
		"figure7_random.csv", "figure8_groups.csv", "figure9_client-server.csv",
		"table_reduction_vs_fdas.csv", "table_piggyback.csv",
		"table_domino.csv", "table_ablation.csv", "table_corollary45.csv", "figure_delay_sensitivity.csv", "table_condition_attribution.csv", "table_guarantees.csv",
	} {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Errorf("artifact %s missing: %v", file, err)
			continue
		}
		if len(data) == 0 || !strings.Contains(string(data), ",") {
			t.Errorf("artifact %s malformed", file)
		}
	}
	checkQuickGolden(t, dir)
}

// checkQuickGolden compares the SHA-256 of every CSV the reduced grid
// wrote with testdata/quick_csv.sha256, in sha256sum's format. The grid is
// deterministic, so any change to a simulated pattern or to the analyses
// shows here in a tier-1 run; the paper-scale CSVs under results/ are
// checked only by the benchmark. Floating-point results are pinned to
// amd64, where the committed results were made. To regenerate after an
// intended change:
//
//	go run ./cmd/rdtexperiments -quick -csv /tmp/q >/dev/null &&
//	(cd /tmp/q && sha256sum *.csv) > cmd/rdtexperiments/testdata/quick_csv.sha256
func checkQuickGolden(t *testing.T, dir string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Logf("quick-grid golden is pinned to amd64, skipped on %s", runtime.GOARCH)
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick_csv.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var got strings.Builder
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(data), filepath.Base(f))
	}
	if got.String() != string(want) {
		t.Errorf("quick-grid CSVs differ from testdata/quick_csv.sha256:\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// TestRunJobsIdenticalOutput runs the reduced grid sequentially and with
// a parallel worker pool: the rendered output (and the completed-cell
// tally) must be identical, per the determinism contract of the grid.
func TestRunJobsIdenticalOutput(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run([]string{"-quick", "-jobs", "1"}, &seq); err != nil {
		t.Fatalf("run -jobs 1: %v", err)
	}
	if err := run([]string{"-quick", "-jobs", "8"}, &par); err != nil {
		t.Fatalf("run -jobs 8: %v", err)
	}
	seqText := strings.ReplaceAll(seq.String(), "(jobs=1)", "(jobs=N)")
	parText := strings.ReplaceAll(par.String(), "(jobs=8)", "(jobs=N)")
	if seqText != parText {
		t.Error("-jobs 1 and -jobs 8 outputs differ")
	}
	// The completed-cell count must be the full grid in both runs: cells
	// finished by concurrent workers may not be lost.
	seqDone, parDone := completedCount(t, seq.String()), completedCount(t, par.String())
	if seqDone == 0 || seqDone != parDone {
		t.Errorf("completed cells: sequential %d, parallel %d", seqDone, parDone)
	}
}

// completedCount extracts N from the trailing "completed N simulations"
// summary line.
func completedCount(t *testing.T, out string) int {
	t.Helper()
	i := strings.LastIndex(out, "completed ")
	if i < 0 {
		t.Fatalf("summary line missing in output")
	}
	var n int
	if _, err := fmt.Sscanf(out[i:], "completed %d simulations", &n); err != nil {
		t.Fatalf("unparsable summary %q: %v", out[i:], err)
	}
	return n
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	// A CSV directory that cannot be created.
	occupied := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := run([]string{"-quick", "-csv", filepath.Join(occupied, "sub")}, &out); err == nil {
		t.Error("uncreatable csv dir accepted")
	}
}
