package main

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// Only sut.go may import ceci/internal/...; every other file of the
// harness sees the standard library and the public ceci package, so a
// refactor of the internals re-points one file.
func TestOnlyTheAdapterImportsInternals(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			switch {
			case strings.HasPrefix(path, "ceci/internal/"):
				if name != "sut.go" {
					t.Errorf("%s imports %s; only sut.go may import the internals", name, path)
				}
			case path == "ceci":
			case strings.Contains(strings.SplitN(path, "/", 2)[0], "."):
				t.Errorf("%s imports %s: the benchmark adds no dependencies", name, path)
			}
		}
	}
}
