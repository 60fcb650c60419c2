package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
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

// TestSpareUsersRunUnderRace keeps raceStep's lists whole: every
// package whose non-test files import internal/spare is in it, and
// every alternative of a -run pattern there selects at least one test
// of its command's packages, so a renamed or deleted test cannot leave
// a name that runs nothing.
func TestSpareUsersRunUnderRace(t *testing.T) {
	users := make(map[string]bool)
	tests := make(map[string][]string) // package → its Test functions
	walkModule(t, parser.SkipObjectResolution, func(rel string, _ *token.FileSet, f *ast.File) {
		pkg := path.Dir(rel)
		if strings.HasSuffix(rel, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					tests[pkg] = append(tests[pkg], fn.Name.Name)
				}
			}
			return
		}
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); ip == "apna/internal/spare" {
				users[pkg] = true
			}
		}
	})
	if !users["internal/engine"] {
		t.Fatalf("found no non-test import of internal/spare in internal/engine: the walk is broken (%v)", users)
	}
	cmds := raceCommands(t)
	var listed []string
	for _, c := range cmds {
		listed = append(listed, c.pkgs...)
		for _, alt := range c.run {
			re, err := regexp.Compile("^(?:" + alt + ")")
			if err != nil {
				t.Errorf("CI step %q: -run alternative %q: %v", raceStep, alt, err)
				continue
			}
			if !slices.ContainsFunc(c.pkgs, func(pkg string) bool { return slices.ContainsFunc(tests[pkg], re.MatchString) }) {
				t.Errorf("CI step %q: -run alternative %q selects no test in %v: rename it with its test, or delete it", raceStep, alt, c.pkgs)
			}
		}
	}
	for pkg := range users {
		if !slices.Contains(listed, pkg) {
			t.Errorf("%s starts work through internal/spare but is not in the CI step %q: add it with the tests that reach spare", pkg, raceStep)
		}
	}
}

// raceCommand is one go test command of raceStep: its packages,
// relative to the module root ("." for the root), and the alternatives
// of its -run pattern (none when it runs every test).
type raceCommand struct {
	pkgs, run []string
}

// raceCommands returns raceStep's go test commands. A -run pattern
// must have the form '^(A|B|...)'.
func raceCommands(t *testing.T) []raceCommand {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(moduleRoot(t), ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var cmds []raceCommand
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "- name: "); ok {
			in = strings.HasPrefix(name, raceStep)
			continue
		}
		if !in || !strings.Contains(line, "go test") {
			continue
		}
		var c raceCommand
		fields := strings.Fields(line)
		for i, f := range fields {
			switch {
			case f == "." || strings.HasPrefix(f, "./"):
				c.pkgs = append(c.pkgs, path.Clean(f))
			case f == "-run" && i+1 < len(fields):
				pat := strings.Trim(fields[i+1], "'")
				if !strings.HasPrefix(pat, "^(") || !strings.HasSuffix(pat, ")") {
					t.Fatalf("CI step %q: -run %s is not of the form '^(A|B|...)'", raceStep, fields[i+1])
				}
				c.run = strings.Split(pat[2:len(pat)-1], "|")
			}
		}
		cmds = append(cmds, c)
	}
	if len(cmds) == 0 {
		t.Fatalf("found no go test commands in the CI step %q", raceStep)
	}
	return cmds
}
