package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// This file is a minimal analysistest: each testdata package annotates
// the lines where an analyzer must report with
//
//	// want `regex` `regex` ...
//
// comments (one backquoted or quoted regex per expected diagnostic on
// that line). runWant loads the directory under a synthetic import path
// — which is how a testdata package impersonates a strict package like
// apna/internal/netsim — runs one analyzer, and requires an exact
// match: every diagnostic matched by a want on its line, every want
// matched by a diagnostic.

var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants returns line -> expected-message regexps for every file in
// the package.
func parseWants(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp) // "file:line" -> regexps
	fset := sharedLoader(t).Fset
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllString(c.Text[i+len("// want "):], -1) {
					var pat string
					if m[0] == '`' {
						pat = m[1 : len(m)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(m)
						if err != nil {
							t.Fatalf("%s: bad want string %s: %v", key, m, err)
						}
					}
					wants[key] = append(wants[key], regexp.MustCompile(pat))
				}
			}
		}
	}
	return wants
}

// runWant loads testdata/<sub> as importPath and checks the analyzer's
// diagnostics against the package's want comments.
func runWant(t *testing.T, sub, importPath string, a *Analyzer) {
	t.Helper()
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join(moduleRoot(t), "internal/analysis/testdata", sub), importPath)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, l, []*Package{pkg}, a)
}

// checkWants runs one analyzer over pkgs and requires its diagnostics
// to match their want comments exactly.
func checkWants(t *testing.T, l *Loader, pkgs []*Package, a *Analyzer) {
	t.Helper()
	diags, err := Run(l.Fset, pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for key, res := range parseWants(t, pkg) {
			wants[key] = append(wants[key], res...)
		}
	}
	matched := make(map[string][]bool)
	for key, res := range wants {
		matched[key] = make([]bool, len(res))
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		ok := false
		for i, re := range wants[key] {
			if !matched[key][i] && re.MatchString(d.Message) {
				matched[key][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("missing diagnostic at %s matching %q", key, re)
			}
		}
	}
}

func TestDetwallStrict(t *testing.T) {
	// The synthetic import path places the package inside the
	// deterministic set, where wall-clock reads are unconditionally
	// banned and map-order leaks are checked.
	runWant(t, "detwall_strict", "apna/internal/netsim", Detwall)
}

func TestDetwallMeasurement(t *testing.T) {
	// Outside the deterministic set //apna:wallclock sanctions
	// measurement reads; bare reads still report.
	runWant(t, "detwall_meas", "apna/example/meas", Detwall)
}

func TestHotpath(t *testing.T) {
	runWant(t, "hotpath", "apna/example/hot", Hotpath)
}

func TestVerifyfirst(t *testing.T) {
	runWant(t, "verifyfirst", "apna/internal/accountability", Verifyfirst)
}

func TestWrapcheck(t *testing.T) {
	runWant(t, "wrapcheck", "apna/internal/wraptest", Wrapcheck)
}

func TestWrapcheckSkipsNonInternal(t *testing.T) {
	// The same sources outside internal/ must produce nothing: the
	// convention is scoped to the repo's internal packages.
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join(moduleRoot(t), "internal/analysis/testdata/wrapcheck"), "apna/example/wraptest")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(l.Fset, []*Package{pkg}, []*Analyzer{Wrapcheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("wrapcheck reported outside internal/: %v", diags)
	}
}

func TestNilness(t *testing.T) {
	runWant(t, "nilness", "apna/example/nilness", Nilness)
}

func TestDirectives(t *testing.T) {
	runWant(t, "directives", "apna/example/directives", Directives)
}

// TestDeadexport runs the analyzer on testdata/deadexport, a module of
// its own, so the pass holds the whole module. The analyzer covers
// every package of the module, so the same findings must come whether
// the synthetic import path lies under internal/ or not.
func TestDeadexport(t *testing.T) {
	for _, path := range []string{"apna/internal/deadexport", "apna/deadexport"} {
		t.Run(strings.ReplaceAll(path, "/", "_"), func(t *testing.T) {
			runWant(t, "deadexport", path, Deadexport)
		})
	}
}

// TestDeadexportOnly runs the analyzer on testdata/only, a module of
// several packages, so the pass holds the whole module: every reference
// to an //apna:only name from an unlisted package fails where it is made
// (a plain call, a method value, a renamed import, a type conversion,
// the declaring package itself), and so do a listed package that no
// longer references the name and a mark without a list. A reference
// from a _test.go file is not one.
func TestDeadexportOnly(t *testing.T) {
	l := NewLoader(filepath.Join(moduleRoot(t), "internal/analysis/testdata/only"))
	l.Fset = sharedLoader(t).Fset // parseWants reads positions from it
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages of testdata/only, want 3", len(pkgs))
	}
	checkWants(t, l, pkgs, Deadexport)
}

// copyDeadexport copies testdata/deadexport into a fresh directory,
// applies edit to dead.go's source, and returns the directory.
func copyDeadexport(t *testing.T, edit func(string) string) string {
	t.Helper()
	src := filepath.Join(moduleRoot(t), "internal/analysis/testdata/deadexport")
	dir := t.TempDir()
	for _, name := range []string{"go.mod", "dead.go", "dead_test.go"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "dead.go" {
			data = []byte(edit(string(data)))
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runDeadexportDir loads dir as the testdata package and runs the
// analyzer on it alone.
func runDeadexportDir(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	l := sharedLoader(t)
	pkg, err := l.LoadDir(dir, "apna/internal/deadexport")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(l.Fset, []*Package{pkg}, []*Analyzer{Deadexport})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestDeadexportCascade is the second run after a deletion: with Dead
// gone, Helper (used only by Dead) is reported, and nothing else new.
func TestDeadexportCascade(t *testing.T) {
	const dead = "func Dead() int { return Helper() }"
	dir := copyDeadexport(t, func(src string) string {
		if !strings.Contains(src, dead) {
			t.Fatalf("testdata lost %q", dead)
		}
		return strings.Replace(src, dead, "", 1)
	})
	diags := runDeadexportDir(t, dir)
	var helper, gone int
	for _, d := range diags {
		helper += strings.Count(d.Message, "deadexport.Helper is exported")
		gone += strings.Count(d.Message, "deadexport.Dead ")
	}
	if helper != 1 || gone != 0 || len(diags) != 7 {
		t.Fatalf("second run: Helper reported %d times, Dead %d, %d findings in all (want 1, 0, 7): %v", helper, gone, len(diags), diags)
	}
}

// TestDeadexportSilentOnPartialLoad: a pass that did not load every
// package of the module cannot see every caller, so it reports nothing
// — neither in the testdata module once it gains a second package nor
// for one package of this repository.
func TestDeadexportSilentOnPartialLoad(t *testing.T) {
	dir := copyDeadexport(t, func(src string) string { return src })
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "sub.go"), []byte("package sub\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if diags := runDeadexportDir(t, dir); len(diags) != 0 {
		t.Fatalf("partial load of the testdata module reported: %v", diags)
	}

	l := sharedLoader(t)
	pkgs, err := l.Load("./internal/host")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(l.Fset, pkgs, []*Analyzer{Deadexport})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("partial load reported: %v", diags)
	}
}

// TestRepoCleanUnderFullSuite is the regression gate the satellites ask
// for: the entire module must stay clean under every analyzer, so a
// stray time.Now or a mutex smuggled onto the hot path fails `go test`
// as well as the CI lint step.
func TestRepoCleanUnderFullSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	l := sharedLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(l.Fset, pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestInjectedWallclockFails drives the ISSUE's acceptance scenario end
// to end: copy internal/accountability aside, seed a time.Now() into
// it, and require detwall to reject the package under its real import
// path.
func TestInjectedWallclockFails(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-checks a package")
	}
	src := filepath.Join(moduleRoot(t), "internal/accountability")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inject := "package accountability\n\nimport \"time\"\n\nfunc injectedStamp() int64 { return time.Now().UnixNano() }\n"
	if err := os.WriteFile(filepath.Join(dir, "zz_injected.go"), []byte(inject), 0o644); err != nil {
		t.Fatal(err)
	}

	l := sharedLoader(t)
	pkg, err := l.LoadDir(dir, "apna/internal/accountability")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(l.Fset, []*Package{pkg}, []*Analyzer{Detwall})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "time.Now") && strings.Contains(d.Pos.Filename, "zz_injected.go") {
			found = true
		}
	}
	if !found {
		t.Fatalf("detwall did not reject an injected time.Now in accountability; got %v", diags)
	}
}

// TestAllAnalyzersRegistered pins the suite composition: a new analyzer
// must be wired into All() or the CI gate silently loses it.
func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{"detwall", "hotpath", "verifyfirst", "wrapcheck", "nilness", "deadexport", "directives"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: incomplete analyzer", a.Name)
		}
	}
}
