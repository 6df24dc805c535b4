package ceci_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docNames is what the tree declares, by the names a document uses for it.
type docNames struct {
	pkgs     map[string]map[string]bool // package name → declarations and method names
	members  map[string]map[string]bool // type name → fields and methods
	embeds   map[string][]string        // type name → types it aliases or embeds
	external map[string]bool            // names of packages imported from outside the module
}

// loadDocNames parses every Go file under root. Types of one name in
// different packages (every Options) pool their members.
func loadDocNames(t *testing.T, root string) *docNames {
	t.Helper()
	n := &docNames{
		pkgs:     map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
		embeds:   map[string][]string{},
		external: map[string]bool{},
	}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); ip != "ceci" && !strings.HasPrefix(ip, "ceci/") {
				n.external[path.Base(ip)] = true
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				// A method counts as its package's too: `enum.MeasureUnits`.
				add(n.pkgs, pkg, d.Name.Name)
				if d.Recv != nil {
					add(n.members, typeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(n.pkgs, pkg, id.Name)
						}
					case *ast.TypeSpec:
						name := s.Name.Name
						add(n.pkgs, pkg, name)
						if n.members[name] == nil {
							n.members[name] = map[string]bool{}
						}
						if s.Assign.IsValid() {
							n.embeds[name] = append(n.embeds[name], typeName(s.Type))
						}
						switch ty := s.Type.(type) {
						case *ast.StructType:
							for _, fl := range ty.Fields.List {
								if len(fl.Names) == 0 {
									n.embeds[name] = append(n.embeds[name], typeName(fl.Type))
									add(n.members, name, typeName(fl.Type))
								}
								for _, id := range fl.Names {
									add(n.members, name, id.Name)
								}
							}
						case *ast.InterfaceType:
							for _, m := range ty.Methods.List {
								for _, id := range m.Names {
									add(n.members, name, id.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// typeName is the type a type expression names: Foo of *pkg.Foo or Foo[K].
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}

// has reports whether type typ declares name, itself or through a type it
// aliases or embeds.
func (n *docNames) has(typ, name string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if n.members[typ][name] {
		return true
	}
	for _, e := range n.embeds[typ] {
		if n.has(e, name, seen) {
			return true
		}
	}
	return false
}

// resolve reports whether left.right names something in the tree, and
// false with ok == false when the pair is not the test's to judge.
func (n *docNames) resolve(left, right string) (found, ok bool) {
	switch {
	case n.pkgs[left] != nil:
		return n.pkgs[left][right], true
	case n.members[left] != nil:
		return n.has(left, right, map[string]bool{}), true
	case n.external[left]:
		return false, false
	case unicode.IsUpper(rune(left[0])):
		return false, true // a type that does not exist
	}
	// A variable: its type is unknown, so any type's member will do.
	for typ := range n.members {
		if n.has(typ, right, map[string]bool{}) {
			return true, true
		}
	}
	return false, true
}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`[^`]+`")
	dottedName  = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+`)
)

// docNameErrors lists each backticked pkg.Exported or Type.Exported in
// text that names nothing in the tree. A lower-case right side (a metric
// such as ceci.build_ms, a file name, an unexported helper) is skipped, as
// is a pair whose left side is a package imported from outside the module.
func (n *docNames) docNameErrors(text string) []string {
	var bad []string
	for _, span := range codeSpan.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1) {
		for _, loc := range dottedName.FindAllStringIndex(span, -1) {
			if loc[0] > 0 && (span[loc[0]-1] == '.' || span[loc[0]-1] == '/') {
				continue // a path or a longer expression
			}
			parts := strings.Split(span[loc[0]:loc[1]], ".")
			for i := 0; i+1 < len(parts); i++ {
				left, right := parts[i], parts[i+1]
				if i > 0 && n.members[left] == nil {
					break // a field or method: its type is not named
				}
				if !unicode.IsUpper(rune(right[0])) {
					break
				}
				if found, ok := n.resolve(left, right); ok && !found {
					bad = append(bad, left+"."+right)
				}
			}
		}
	}
	return bad
}

// docFlag matches a code span that is a flag: -name alone, or before a
// space or '=' and its value.
var docFlag = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)(?:[ =]|$)`)

// goToolFlags are the go command's own flags the docs name.
var goToolFlags = map[string]bool{"race": true, "benchmem": true}

// TestDocFlagsExist fails when DESIGN.md or README.md names, in a
// backticked code span that starts with it, a flag that no binary under
// cmd/, benchmark/ or examples/ defines: a deleted flag leaves the docs
// with it.
func TestDocFlagsExist(t *testing.T) {
	defined := map[string]bool{}
	for _, root := range []string{"cmd", "benchmark", "examples"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				for _, name := range fileFlags(t, p) {
					defined[name] = true
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(defined) < 50 {
		t.Fatalf("found %d flags: the check no longer sees how they are defined", len(defined))
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(fencedBlock.ReplaceAllString(string(b), ""), -1) {
			if m := docFlag.FindStringSubmatch(strings.Trim(span, "`")); m != nil && !defined[m[1]] && !goToolFlags[m[1]] {
				t.Errorf("%s: %s names no flag of a binary under cmd/, benchmark/ or examples/", doc, span)
			}
		}
	}
}

// TestDocNamesResolve fails when DESIGN.md or README.md names, in
// backticks, a package member, a type's field or a method that the tree
// does not declare: the docs describe the code at HEAD, not code that
// was deleted or renamed.
func TestDocNamesResolve(t *testing.T) {
	names := loadDocNames(t, ".")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names.docNameErrors(string(b)) {
			t.Errorf("%s: `%s` names nothing in the tree", doc, name)
		}
	}
}
