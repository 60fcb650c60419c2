package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// moduleRoot locates the repo root from this test file's position, so
// the loader's go command runs in the module whatever the test's CWD.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
}

// walkModule parses every .go file of the module, outside testdata and
// dot directories, and hands it to visit with its path from the module
// root, slash-separated.
func walkModule(t *testing.T, mode parser.Mode, visit func(rel string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	root := moduleRoot(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, mode)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(rel), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sharedLoader amortizes stdlib type-checking across the package's
// tests; the first caller fixes the root.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	if defaultLoader == nil {
		defaultLoader = newLoader(moduleRoot(t))
	}
	return defaultLoader
}

var defaultLoader *Loader

// LoadDir parses and type-checks a single directory of Go files as the
// package `importPath`, resolving its imports through the loader. This
// is how testdata packages load: they are invisible to go list
// patterns, and their import paths are synthetic.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !e.IsDir() {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(names)
	files, err := ParseDirFiles(l.Fset, dir, names)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", "amd64")}
	info := newInfo()
	tp, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	return &Package{ImportPath: importPath, Dir: dir, Files: files, Pkg: tp, Info: info}, nil
}

func TestLoaderTypeChecksModulePackages(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.load("apna/internal/wire", "apna/internal/border")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Pkg == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("%s: incomplete package: %+v", p.ImportPath, p)
		}
	}
	// Types must be real: border.Router should have a LookupRoute
	// method resolved through the from-source stdlib closure.
	border := pkgs[0]
	if border.ImportPath != "apna/internal/border" {
		border = pkgs[1]
	}
	obj := border.Pkg.Scope().Lookup("Router")
	if obj == nil {
		t.Fatal("border.Router not found in package scope")
	}
}
