package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/sim"
)

// TestGridDeterminism is the regression test for the parallel grid's
// central contract: a sequential run (Jobs=1) and a heavily oversubscribed
// parallel run (Jobs=8 on any machine) must produce byte-identical
// artifacts. The rendered CSV is compared, so every formatted digit of
// every cell is covered.
func TestGridDeterminism(t *testing.T) {
	artifacts := func(cfg Config) map[string]string {
		t.Helper()
		out := map[string]string{}
		for _, env := range Environments() {
			s, err := FigureR(cfg, env)
			if err != nil {
				t.Fatalf("jobs=%d: figure %s: %v", cfg.Jobs, env, err)
			}
			out["figure_"+env] = s.Table().CSV()
		}
		red, err := ReductionVsFDAS(cfg)
		if err != nil {
			t.Fatalf("jobs=%d: reduction: %v", cfg.Jobs, err)
		}
		out["reduction"] = red.CSV()
		abl, err := Ablation(cfg)
		if err != nil {
			t.Fatalf("jobs=%d: ablation: %v", cfg.Jobs, err)
		}
		out["ablation"] = abl.CSV()
		return out
	}

	seqCfg := Quick()
	seqCfg.Jobs = 1
	parCfg := Quick()
	parCfg.Jobs = 8

	seq := artifacts(seqCfg)
	par := artifacts(parCfg)
	for name, want := range seq {
		if got := par[name]; got != want {
			t.Errorf("%s differs between jobs=1 and jobs=8:\n--- jobs=1\n%s\n--- jobs=8\n%s", name, want, got)
		}
	}
}

// TestGridCountsCompletedCells: the progress counter must tally exactly
// one increment per grid cell even when many workers complete cells
// concurrently.
func TestGridCountsCompletedCells(t *testing.T) {
	cfg := Quick()
	cfg.Jobs = 8
	cfg.Obs = obs.NewRegistry()
	if _, err := FigureR(cfg, "random"); err != nil {
		t.Fatalf("figure: %v", err)
	}
	want := int64(len(cfg.BasicMeans) * len(cfg.Protocols) * cfg.Seeds)
	if got := cfg.Obs.Counter("rdt_experiment_runs_total").Value(); got != want {
		t.Errorf("rdt_experiment_runs_total = %d, want %d", got, want)
	}
}

// smallGrid is a cheap grid whose schedules interleave in cell order:
// cell i runs protocol kinds[i/3%2] on schedule (env i/6, seed i%3), so
// every schedule's cells are three indices apart.
func smallGrid() (Config, []cell) {
	cfg := Quick()
	cfg.Duration = 30
	kinds := []core.Kind{core.KindBHMR, core.KindFDAS}
	var cells []cell
	for _, env := range Environments() {
		for _, kind := range kinds {
			for seed := 0; seed < 3; seed++ {
				cells = append(cells, cell{env: env, kind: kind, mean: 4, seed: int64(seed)})
			}
		}
	}
	return cfg, cells
}

// TestGridError: a failing cell aborts the grid with its error, on both
// the sequential and the parallel path, and of several failures the one
// with the lowest cell index is reported, even when a schedule claimed
// earlier fails at a higher one. A schedule that cannot be recorded fails
// at its first cell.
func TestGridError(t *testing.T) {
	boom := errors.New("boom")
	for _, jobs := range []int{1, 4} {
		cfg, cells := smallGrid()
		cfg.Jobs = jobs
		// Cell 9 is the second cell of schedule {6, 9}; cell 7 is the
		// first of {7, 10}, claimed after it.
		_, err := runGrid(cfg, cells, func(i int, _ *sim.Result) (int, error) {
			if i == 9 || i == 7 || i == 12 {
				return 0, fmt.Errorf("cell %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) || err.Error() != "cell 7: boom" {
			t.Errorf("jobs=%d: error = %v, want cell 7: boom", jobs, err)
		}

		cells[4].env = "nowhere"
		cells[1].env = "nowhere"
		_, err = runGrid(cfg, cells, func(i int, _ *sim.Result) (int, error) { return i, nil })
		if err == nil || !strings.Contains(err.Error(), "nowhere") {
			t.Errorf("jobs=%d: unknown environment: error = %v", jobs, err)
		}
	}
}

// TestGridOrder: every cell gets its own protocol's result, and the
// values land in their pre-assigned slots whatever the worker count.
func TestGridOrder(t *testing.T) {
	for _, jobs := range []int{1, 3, 16} {
		cfg, cells := smallGrid()
		cfg.Jobs = jobs
		vals, err := runGrid(cfg, cells, func(i int, res *sim.Result) (int, error) {
			if res.Protocol != cells[i].kind || res.Workload != cells[i].env {
				return 0, fmt.Errorf("cell %d (%v/%s) got a %v/%s result", i, cells[i].kind, cells[i].env, res.Protocol, res.Workload)
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range vals {
			if v != i*i {
				t.Fatalf("jobs=%d: slot %d = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}
