package deep_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// modelPackages are the internal packages whose results must depend on
// the seed and the virtual clock alone.
var modelPackages = []string{
	"sim", "fabric", "topology", "machine", "mpi", "cbp", "offload", "ompss",
	"resource", "resil", "energy", "obs", "expt", "apps", "stats", "rng",
}

// TestNoWallClockInModel: the model packages and the deep SDK never
// read or wait on the host clock (time.Now, time.Since, time.Sleep) and
// start no host timer (time.After, time.Tick, time.NewTimer,
// time.NewTicker, time.AfterFunc), so no wall-clock value or timing can
// reach a result, trace, golden table or content-hashed byte. The
// daemon, the store, the benchmark harness and the commands measure
// host time and stay outside this fence.
func TestNoWallClockInModel(t *testing.T) {
	banned := map[string]bool{
		"Now": true, "Since": true, "Sleep": true,
		"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
	}
	roots := []string{"."}
	for _, p := range modelPackages {
		roots = append(roots, filepath.Join("..", "internal", p))
	}
	fset := token.NewFileSet()
	for _, root := range roots {
		files := 0
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			for _, imp := range f.Imports {
				if imp.Path.Value != `"time"` {
					continue
				}
				name := "time"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && banned[sel.Sel.Name] {
						t.Errorf("%s: time.%s uses the host clock in a model package", fset.Position(sel.Pos()), sel.Sel.Name)
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if files == 0 {
			t.Errorf("%s: no Go files checked", root)
		}
	}
}
