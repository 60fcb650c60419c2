package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Loader loads and type-checks packages for analysis without
// golang.org/x/tools: package metadata comes from `go list -deps
// -json`, sources are parsed with go/parser, and types come from
// go/types with every dependency — standard library included —
// type-checked from source in dependency order. Deterministic, offline,
// and toolchain-exact; the price is a few seconds of stdlib
// type-checking per process, which the Loader amortizes across load
// calls.
type Loader struct {
	// Dir is the module root the go command runs in.
	Dir  string
	Fset *token.FileSet

	meta    map[string]*listPkg
	checked map[string]*types.Package
	// targets caches fully-retained packages (ASTs + Info), keyed by
	// import path. Dependency packages retain only their *types.Package.
	targets map[string]*Package
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// newLoader creates a loader rooted at dir (the module root; "" means
// the current directory).
func newLoader(dir string) *Loader {
	return &Loader{
		Dir:     dir,
		Fset:    token.NewFileSet(),
		meta:    make(map[string]*listPkg),
		checked: make(map[string]*types.Package),
		targets: make(map[string]*Package),
	}
}

// goList runs `go list -deps -json` over the patterns and indexes the
// result. CGO is disabled so every dependency resolves to its pure-Go
// variant, which is what keeps from-source type-checking closed.
func (l *Loader) goList(patterns ...string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-deps", "-json=Dir,ImportPath,Name,Standard,DepOnly,GoFiles,Imports,ImportMap,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if _, ok := l.meta[p.ImportPath]; !ok {
			l.meta[p.ImportPath] = p
		}
		// Return the freshly-decoded entry, not the cached one: DepOnly
		// is relative to this invocation's patterns, and load filters on
		// it. (A package that was a target of an earlier, broader load
		// must not leak into a narrower one.)
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// load loads the packages matching the go list patterns (plus their
// whole dependency closure, type-checked but not analyzed) and returns
// the matching packages ready for analysis, sorted by import path.
func (l *Loader) load(patterns ...string) ([]*Package, error) {
	pkgs, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, m := range pkgs { // -deps order: dependencies first
		if _, err := l.check(m.ImportPath); err != nil {
			return nil, err
		}
		if m.DepOnly || m.Standard {
			continue
		}
		p, ok := l.targets[m.ImportPath]
		if !ok {
			// The package was first seen as a dependency (ASTs
			// dropped); re-check it with retention on.
			p, err = l.checkRetained(m)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// Import implements types.Importer over the loader's cache, loading
// lazily when a path was not covered by a prior go list call (testdata
// packages reaching for a stdlib package no target imports).
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.check(path)
}

// check type-checks the package at the import path (dependencies
// first), retaining ASTs and Info only for non-standard module
// packages.
func (l *Loader) check(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := l.checked[path]; ok {
		return tp, nil
	}
	m, ok := l.meta[path]
	if !ok {
		if _, err := l.goList(path); err != nil {
			return nil, err
		}
		if m, ok = l.meta[path]; !ok {
			return nil, fmt.Errorf("go list did not resolve %q", path)
		}
	}
	retain := !m.Standard
	p, err := l.typecheck(m, retain)
	if err != nil {
		return nil, err
	}
	if retain {
		l.targets[path] = p
	}
	return p.Pkg, nil
}

// checkRetained re-checks a package keeping ASTs and Info, replacing a
// dependency-only entry.
func (l *Loader) checkRetained(m *listPkg) (*Package, error) {
	p, err := l.typecheck(m, true)
	if err != nil {
		return nil, err
	}
	l.targets[m.ImportPath] = p
	return p, nil
}

// typecheck parses and checks one package whose dependencies are
// already in the cache (go list -deps order guarantees it for load;
// Import recurses for stragglers).
func (l *Loader) typecheck(m *listPkg, retain bool) (*Package, error) {
	files, err := ParseDirFiles(l.Fset, m.Dir, m.GoFiles)
	if err != nil {
		return nil, err
	}
	imp := types.Importer(l)
	if len(m.ImportMap) > 0 {
		imp = &mappedImporter{m: m.ImportMap, next: l}
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	info := newInfo()
	tp, err := conf.Check(m.ImportPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", m.ImportPath, err)
	}
	l.checked[m.ImportPath] = tp
	p := &Package{ImportPath: m.ImportPath, Dir: m.Dir, Pkg: tp}
	if retain {
		p.Files = files
		p.Info = info
	}
	return p, nil
}

// mappedImporter applies go list's ImportMap (vendoring, "C"
// pseudo-packages) before delegating.
type mappedImporter struct {
	m    map[string]string
	next types.Importer
}

func (mi *mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.m[path]; ok {
		path = mapped
	}
	return mi.next.Import(path)
}

// ParseDirFiles parses the named files in dir with comments retained.
func ParseDirFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
