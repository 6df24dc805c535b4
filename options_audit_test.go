package ceci_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// auditedPackages are the directories whose options structs
// (auditedStructs) TestEveryOptionHasASetter walks.
var auditedPackages = []string{
	".", "internal/baseline", "internal/baseline/dualsim", "internal/baseline/psgl", "internal/baseline/turboiso",
	"internal/ceci", "internal/cluster", "internal/enum", "internal/obs", "internal/order", "internal/reference",
	"internal/service", "internal/shard", "internal/telemetry", "internal/verify", "internal/workload",
}

var auditedStructs = map[string]bool{
	"Options": true, "RouterOptions": true, "Config": true, "TracerOptions": true,
	"PartitionOptions": true, "DistributeOptions": true, "SLOConfig": true, "ShardConfig": true,
}

// unsetOptions are the exported option fields nothing outside a test
// assigns, each with the reason it stays.
var unsetOptions = map[string]string{
	"ceci/internal/ceci.Options.SkipNLCFilter":               "the filter oracle's off-switch: filter_oracle_test.go and the golden index table build with it to pin what NLC removes",
	"ceci/internal/telemetry.Options.Resolutions":            "test seam: the hub and service telemetry tests run on a 30-slot ring",
	"ceci/internal/baseline.Options.DisableSymmetryBreaking": "test seam: the raw-count cross-checks (baseline_test.go, psgl_test.go) list every automorphic image",
	"ceci/internal/baseline/psgl.Options.MaxIntermediates":   "test seam: the abort tests (psgl_test.go) cap the intermediate results",
	"ceci/internal/reference.Options.Limit":                  "test seam: the oracle answers whether one embedding exists (gen_test.go) and the first ten (reference_test.go)",
	"ceci/internal/obs.TracerOptions.MaxChildren":            "test seam: the span-cap tests (trace_test.go, finished_test.go) record past caps of one, two and six children",
	"ceci/internal/obs.TracerOptions.OnStart":                "test seam: the build-count tests (limited_test.go, obs_test.go, internal/enum/limited_test.go) count build spans as they open, and record_test.go pauses a run at a cluster span",
	"ceci/internal/telemetry.Options.Now":                    "test seam: the hub tests (hub_test.go) sample on a fake clock",
}

// TestEveryOptionHasASetter fails when an exported field of an audited
// options struct is never assigned outside _test.go files: a knob no
// binary, example, service path or benchmark workload can turn is dead
// code with a test. It reads syntax only (go/parser): a setter is a keyed
// field of a composite literal of the struct's type, or a `x.Field = …` /
// `&x.Field` in a file that is in, or imports, the struct's package —
// unless x is a by-value parameter or receiver of the struct's own type,
// whose package is filling a default into its own copy.
func TestEveryOptionHasASetter(t *testing.T) {
	fset := token.NewFileSet()
	type source struct {
		pkgPath string
		imports map[string]string // local name → import path
		file    *ast.File
	}
	var sources []source
	for path, f := range parseNonTestGo(t, fset) {
		src := source{pkgPath: importPath(filepath.Dir(path)), imports: map[string]string{}, file: f}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			src.imports[name] = p
		}
		sources = append(sources, src)
	}

	// fields["pkgpath.Struct"] = exported field names.
	fields := map[string][]string{}
	audited := map[string]bool{}
	for _, dir := range auditedPackages {
		audited[importPath(dir)] = true
	}
	for _, src := range sources {
		if !audited[src.pkgPath] {
			continue
		}
		ast.Inspect(src.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !auditedStructs[ts.Name.Name] {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.IsExported() {
							key := src.pkgPath + "." + ts.Name.Name
							fields[key] = append(fields[key], name.Name)
						}
					}
				}
			}
			return false
		})
	}
	if len(fields) < len(auditedPackages) {
		t.Fatalf("found options structs in %d of %d packages: %v", len(fields), len(auditedPackages), fields)
	}

	set := map[string]bool{} // "pkgpath.Struct.Field"
	for _, src := range sources {
		// visible[pkgpath] — the packages whose structs this file can name.
		visible := map[string]bool{src.pkgPath: true}
		for _, p := range src.imports {
			visible[p] = true
		}
		markSelector := func(e ast.Expr) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			for key := range fields {
				if visible[key[:strings.LastIndex(key, ".")]] {
					set[key+"."+sel.Sel.Name] = true
				}
			}
		}
		own := ownCopies(src.file)
		ast.Inspect(src.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				pkg, name := src.pkgPath, ""
				switch typ := n.Type.(type) {
				case *ast.Ident:
					name = typ.Name
				case *ast.SelectorExpr:
					if x, ok := typ.X.(*ast.Ident); ok {
						pkg, name = src.imports[x.Name], typ.Sel.Name
					}
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							set[pkg+"."+name+"."+k.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && own[sel] {
						continue
					}
					markSelector(lhs)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markSelector(n.X)
				}
			}
			return true
		})
	}

	var dead []string
	exists := map[string]bool{}
	for key, names := range fields {
		for _, name := range names {
			field := key + "." + name
			exists[field] = true
			switch _, exempt := unsetOptions[field]; {
			case !set[field] && !exempt:
				dead = append(dead, field)
			case set[field] && exempt:
				t.Errorf("%s is assigned outside tests now: drop its unsetOptions entry", field)
			}
		}
	}
	sort.Strings(dead)
	for _, field := range dead {
		t.Errorf("%s is never assigned outside _test.go files: delete it, or give it a caller", field)
	}
	for field := range unsetOptions {
		if !exists[field] {
			t.Errorf("unsetOptions names %s, which is no field of an audited struct: drop the entry", field)
		}
	}
}

// ownCopies returns the `x.Field` assignment targets in f whose x is a
// parameter or the receiver of an audited options struct of f's own
// package, taken by value: such an assignment fills a default into the
// function's own copy, and sets nothing a caller can turn.
func ownCopies(f *ast.File) map[*ast.SelectorExpr]bool {
	own := map[*ast.SelectorExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		var lists []*ast.FieldList // the receiver (nil on a function), then the parameters
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			lists, body = []*ast.FieldList{fn.Recv, fn.Type.Params}, fn.Body
		case *ast.FuncLit:
			lists, body = []*ast.FieldList{fn.Type.Params}, fn.Body
		default:
			return true
		}
		params := map[string]bool{}
		for _, list := range lists {
			if list == nil {
				continue
			}
			for _, p := range list.List {
				if typ, ok := p.Type.(*ast.Ident); ok && auditedStructs[typ.Name] {
					for _, name := range p.Names {
						params[name.Name] = true
					}
				}
			}
		}
		if len(params) == 0 || body == nil {
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && params[x.Name] {
							own[sel] = true
						}
					}
				}
			}
			return true
		})
		return true
	})
	return own
}

// parseNonTestGo parses every Go file under the module root that is not a
// test, skipping hidden and testdata directories, keyed by path.
func parseNonTestGo(t *testing.T, fset *token.FileSet) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[path] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// importPath maps a directory of this module to its import path.
func importPath(dir string) string {
	if dir == "." {
		return "ceci"
	}
	return "ceci/" + filepath.ToSlash(dir)
}
