package ceci_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestEveryCounterWriteIsAnAdd fails when non-test code writes a field of
// stats.Counters by anything but Add. The snapshot exports every field as
// a ceci_*_total counter, so each must be a sum; a Store is a gauge riding
// that name, and it hides work in its writer — the value has to be
// computed whether or not anybody reads it (Index.SizeBytes inside every
// instrumented build was 44 % of serve_churn). A derived number is
// computed by its reader. It reads syntax only (go/parser): a write is a
// call of an atomic.Int64 mutator on a selector that ends in a Counters
// field name.
func TestEveryCounterWriteIsAnAdd(t *testing.T) {
	fset := token.NewFileSet()
	statsFile, err := parser.ParseFile(fset, filepath.Join("internal", "stats", "stats.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]bool{}
	ast.Inspect(statsFile, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Counters" {
			return true
		}
		for _, f := range ts.Type.(*ast.StructType).Fields.List {
			for _, name := range f.Names {
				counters[name.Name] = true
			}
		}
		return false
	})
	if len(counters) == 0 {
		t.Fatal("found no fields in stats.Counters")
	}
	mutators := map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true, "And": true, "Or": true}
	adds := 0
	for _, file := range parseNonTestGo(t, fset) {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			field, ok := method.X.(*ast.SelectorExpr)
			if !ok || !counters[field.Sel.Name] {
				return true
			}
			switch {
			case method.Sel.Name == "Add":
				adds++
			case mutators[method.Sel.Name]:
				t.Errorf("%s: %s.%s: a stats.Counters field is a sum — Add what is in hand, or let the reader compute it",
					fset.Position(call.Pos()), field.Sel.Name, method.Sel.Name)
			}
			return true
		})
	}
	if adds == 0 {
		t.Fatal("found no counter writes at all: the walk is broken")
	}
}
