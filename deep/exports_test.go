package deep_test

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

// exportKeeps are exported functions and methods under internal/ that
// no non-test file names, kept on purpose. Keys are "pkg.Func" or
// "pkg.Type.Method"; each value says why.
var exportKeeps = map[string]string{
	"ompss.prioIdxHeap.Less":  "container/heap.Interface method, called through the interface",
	"ompss.simEventHeap.Less": "container/heap.Interface method, called through the interface",
	"sim.Engine.Cancel":       "revokes a Token that Schedule returns; the calendar's cancelled-record handling is on the dispatch hot path",
}

// TestNoTestOnlyExports: every exported function or method declared in
// a non-test file under internal/ is named in some non-test file other
// than at its declaration. Code that only its own tests call is code
// no result reaches; a fixture a test needs belongs in the test file.
// The match is by name, so a name any non-test file uses counts as a
// use whatever it refers to.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "../internal/")
		declared := map[*ast.Ident]bool{}
		for _, dcl := range f.Decls {
			fd, ok := dcl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !internal || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if idx, ok := typ.(*ast.IndexExpr); ok {
					typ = idx.X
				}
				key = f.Name.Name + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	var dead []string
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if _, keep := exportKeeps[d.key]; !used[name] && !keep {
			dead = append(dead, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is named only by tests: delete it, or move it into the test that uses it", d)
	}
	for key := range exportKeeps {
		found := false
		for _, d := range decls {
			found = found || d.key == key
		}
		if !found {
			t.Errorf("exportKeeps names %s, which is not declared under internal/", key)
		}
	}
}
