package ceci_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagAuditedCommands are the serving binaries whose flags
// TestEveryServingFlagIsExercised walks.
var flagAuditedCommands = []string{"cmd/ceciserve", "cmd/ceciroute"}

// historyDocs record what past PRs did and asked for; a flag named only
// there is neither exercised nor documented.
var historyDocs = map[string]bool{"CHANGES.md": true, "EXPERIMENTS.md": true, "ISSUE.md": true}

// TestEveryServingFlagIsExercised fails when a flag of ceciserve or
// ceciroute is spelled ("-name") in no test, script, workflow, Makefile
// or document: a knob nobody turns and nobody is told about is dead code
// with a parser. It is TestEveryOptionHasASetter's other half — that one
// finds the option no binary can set, this one the flag no one sets. It
// reads syntax only (go/parser): a flag is the string-literal name
// argument of a call into package flag.
func TestEveryServingFlagIsExercised(t *testing.T) {
	flags := map[string][]string{} // command dir → flag names
	for _, dir := range flagAuditedCommands {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if !strings.HasSuffix(path, "_test.go") {
				flags[dir] = append(flags[dir], fileFlags(t, path)...)
			}
		}
		if len(flags[dir]) < 10 {
			t.Fatalf("%s: found %d flags (%v): the audit no longer sees how they are defined", dir, len(flags[dir]), flags[dir])
		}
	}

	var corpus strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && strings.HasPrefix(name, ".") && name != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		switch {
		case strings.HasSuffix(name, "_test.go"),
			dir == "scripts",
			dir == ".github/workflows",
			name == "Makefile",
			strings.HasSuffix(name, ".md") && !historyDocs[name]:
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			corpus.Write(b)
			corpus.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	text := corpus.String()

	var dead []string
	for dir, names := range flags {
		for _, name := range names {
			// "-name" as a whole word: not the tail of a longer flag, not
			// the head of one.
			spelled := regexp.MustCompile(`(^|[^\w-])--?` + regexp.QuoteMeta(name) + `($|[^\w-])`)
			if !spelled.MatchString(text) {
				dead = append(dead, dir+" -"+name)
			}
		}
	}
	sort.Strings(dead)
	for _, f := range dead {
		t.Errorf("%s appears in no _test.go, scripts/, workflow, Makefile or .md file: delete the flag, or exercise or document it", f)
	}
}

// fileFlags returns the names of the flags a Go file defines, reading
// syntax only (go/parser): a flag is the string-literal name argument of
// a call into package flag.
func fileFlags(t *testing.T, path string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return true
		}
		// flag.XxxVar(&v, name, …) names the flag second;
		// flag.Xxx(name, …) and flag.Func(name, …) first.
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if arg < len(call.Args) {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				names = append(names, name)
			}
		}
		return true
	})
	return names
}
