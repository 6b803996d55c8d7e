package rdt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const facadePath = "github.com/rdt-go/rdt"

// TestFacadeIsUsed keeps the root package a front door rather than a
// mirror of internal/: every exported name must be referenced by a
// program outside cmd/ (examples/ or example_test.go), and the binaries
// under cmd/ import internal/ directly.
func TestFacadeIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string, mode parser.Mode) *ast.File {
		t.Helper()
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	glob := func(pattern string) []string {
		t.Helper()
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("glob %s: %v, %v", pattern, paths, err)
		}
		return paths
	}

	used := make(map[string]bool)
	for _, path := range append(glob("examples/*/*.go"), "example_test.go") {
		f := parse(path, parser.SkipObjectResolution)
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == facadePath {
				local = "rdt"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local != "" && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	exported := 0
	check := func(id *ast.Ident) {
		if !id.IsExported() {
			return
		}
		exported++
		if !used[id.Name] {
			t.Errorf("rdt.%s is exported but no example references it", id.Name)
		}
	}
	for _, path := range glob("*.go") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, decl := range parse(path, parser.SkipObjectResolution).Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							check(name)
						}
					}
				}
			}
		}
	}
	if exported == 0 {
		t.Fatal("found no exported identifier in the root package")
	}

	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		for _, imp := range parse(path, parser.ImportsOnly).Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == facadePath {
				t.Errorf("%s imports the facade; binaries import internal/ directly", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
