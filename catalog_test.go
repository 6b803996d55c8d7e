package rdt_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestREADMEMetricCatalog holds README's metric catalog and the code to
// each other: every "rdt_*" string literal in the non-test Go under
// internal/ and cmd/ is a row of the table, and every name in the table
// is such a literal.
func TestREADMEMetricCatalog(t *testing.T) {
	literal := regexp.MustCompile(`"(rdt_[a-z0-9_]+)"`)
	cell := regexp.MustCompile("`(rdt_[a-z0-9_]+)`")
	inCode := make(map[string]bool)
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range literal.FindAllStringSubmatch(string(src), -1) {
				inCode[m[1]] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\nMetric catalog")
	if !ok {
		t.Fatal("README.md has no metric catalog")
	}
	if end := strings.Index(table, "\n\n|"); end < 0 {
		t.Fatal("README.md's metric catalog has no table")
	} else {
		table = table[end+2:]
	}
	if end := strings.Index(table, "\n\n"); end >= 0 {
		table = table[:end]
	}
	inTable := make(map[string]bool)
	for _, row := range strings.Split(table, "\n") {
		series, _, _ := strings.Cut(strings.TrimPrefix(row, "|"), "|")
		for _, m := range cell.FindAllStringSubmatch(series, -1) {
			inTable[m[1]] = true
		}
	}

	if len(inCode) == 0 || len(inTable) == 0 {
		t.Fatalf("found %d names in the code and %d in the table", len(inCode), len(inTable))
	}
	for _, name := range sorted(inCode) {
		if !inTable[name] {
			t.Errorf("%s is named in the code but missing from README's metric catalog", name)
		}
	}
	for _, name := range sorted(inTable) {
		if !inCode[name] {
			t.Errorf("%s is in README's metric catalog but no code names it", name)
		}
	}
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
