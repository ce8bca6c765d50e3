package pmc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceReached lists exported names under internal/ that no other
// production file names, because the standard library calls them through
// an interface. Each entry says which one.
var interfaceReached = map[string]string{
	"Unwrap": "cli.UsageError: errors.Is and errors.As call it",
}

// TestNoTestOnlyExports keeps test-only code out of the production build.
// Every exported func, method, type, var and const declared in a non-test
// file under internal/ must be named as an identifier, outside its own
// declaration and method receivers, by some non-test file under internal/,
// cmd/, examples/, benchmark/ or the root. An export only tests reach
// belongs in the tests: as a rewrite against the unexported path
// production takes, or as a helper in a _test.go file.
//
// The check is by name, not by type: a method Count on one type counts as
// used when any file names some other Count. So a same-name collision can
// hide a test-only export, but a name the check reports is never reached
// from production code.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ name, file string }
	var decls []decl
	uses := map[string]int{} // identifier -> occurrences outside declarations
	fset := token.NewFileSet()
	parse := func(path string, declare bool) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		// A declaration's own name and a method's receiver do not use
		// the name they mention.
		skip := map[*ast.Ident]bool{}
		var names []*ast.Ident
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names = append(names, d.Name)
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name)
					case *ast.ValueSpec:
						names = append(names, s.Names...)
					}
				}
			}
		}
		for _, id := range names {
			skip[id] = true
			if declare && id.IsExported() {
				decls = append(decls, decl{id.Name, path})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] {
				uses[id.Name]++
			}
			return true
		})
	}
	isSource := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}
	for _, dir := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && isSource(d.Name()) {
				parse(path, dir == "internal")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range root {
		if isSource(path) {
			parse(path, false)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}

	var bad []string
	for _, d := range decls {
		if _, ok := interfaceReached[d.name]; !ok && uses[d.name] == 0 {
			bad = append(bad, d.file+": "+d.name)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d exported declarations are named by no production code; "+
			"move them into the tests or rewrite their tests against the production path:\n%s",
			len(bad), strings.Join(bad, "\n"))
	}
}
