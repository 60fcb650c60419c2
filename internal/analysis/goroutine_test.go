package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestOneDoorOntoACore keeps internal/spare the process's one way onto
// a core (DESIGN §8, "Spare cores"): no non-test code outside it has a
// go statement, so every goroutine the module starts is a worker that
// spare.Workers reserves a P for or a background task that the budget
// admitted. Tests wait for background work with spare.Idle, so none
// reads a goroutine dump (runtime.Stack).
func TestOneDoorOntoACore(t *testing.T) {
	inSpare := 0
	walkModule(t, parser.SkipObjectResolution, func(rel string, fset *token.FileSet, f *ast.File) {
		test := strings.HasSuffix(rel, "_test.go")
		at := func(n ast.Node) string { return rel + ":" + strconv.Itoa(fset.Position(n.Pos()).Line) }
		runtimeName := ""
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); ip == "runtime" {
				runtimeName = "runtime"
				if imp.Name != nil {
					runtimeName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				switch {
				case test:
				case strings.HasPrefix(rel, "internal/spare/"):
					inSpare++
				default:
					t.Errorf("%s: go statement outside internal/spare: start long-lived workers with spare.Workers and background work with spare.Go or spare.Each", at(n))
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && test && runtimeName != "" && x.Name == runtimeName && n.Sel.Name == "Stack" {
					t.Errorf("%s: a test reads a goroutine dump: wait for background work with spare.Idle", at(n))
				}
			}
			return true
		})
	})
	if inSpare == 0 {
		t.Fatal("found no go statement in internal/spare: the walk is broken")
	}
}
