package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"slices"
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

// raceStep is the CI step that runs every test handing work to
// internal/spare under the race detector, at one and two Ps.
const raceStep = "One spare-core budget under the race detector"

// raceStepExempt lists, with the reason, the packages that start work
// through internal/spare but are not in raceStep.
var raceStepExempt = map[string]string{
	"internal/experiments": "retires with its only driver, apna-bench (ROADMAP item 5); engine.Run, which it drives, is in the step",
}

// TestSpareUsersRunUnderRace keeps raceStep's package list whole: every
// package whose non-test files import internal/spare is in it, or in
// raceStepExempt with a reason.
func TestSpareUsersRunUnderRace(t *testing.T) {
	users := make(map[string]bool)
	walkModule(t, parser.ImportsOnly, func(rel string, _ *token.FileSet, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); ip == "apna/internal/spare" {
				users[path.Dir(rel)] = true
			}
		}
	})
	if !users["internal/engine"] {
		t.Fatalf("found no non-test import of internal/spare in internal/engine: the walk is broken (%v)", users)
	}
	listed := racePackages(t)
	for pkg := range users {
		if !slices.Contains(listed, pkg) && raceStepExempt[pkg] == "" {
			t.Errorf("%s starts work through internal/spare but is not in the CI step %q: add it with the tests that reach spare", pkg, raceStep)
		}
	}
	for pkg := range raceStepExempt {
		if slices.Contains(listed, pkg) || !users[pkg] {
			t.Errorf("stale raceStepExempt entry %s", pkg)
		}
	}
}

// racePackages returns the packages, relative to the module root ("."
// for the root), that raceStep's go test commands name.
func racePackages(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(moduleRoot(t), ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "- name: "); ok {
			in = strings.HasPrefix(name, raceStep)
			continue
		}
		if !in || !strings.Contains(line, "go test") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, path.Clean(f))
			}
		}
	}
	if len(pkgs) == 0 {
		t.Fatalf("found no go test packages in the CI step %q", raceStep)
	}
	return pkgs
}
