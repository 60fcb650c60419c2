package analysis

import (
	"errors"
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Deadexport keeps the module to what production calls. The module path
// is "apna", which nothing outside this repository can import, so the
// module is a closed world: an exported name declared in a non-test
// file of any of its packages — the root facade, cmd/, examples/ and
// internal/ alike — that no non-test file of the module references
// (outside its own declaration) is code only tests keep alive. Each
// finding is resolved by deleting the name, moving it into a _test.go
// file of its package, or — when a test in another package observes
// production behaviour through it — marking its doc comment
// //apna:testonly <reason>.
//
// //apna:only <import path>... on a declaration's doc comment names the
// packages whose non-test code may reference it (its own package only
// if listed): a reference from any other package is reported where it
// is made, and so is a listed package that no longer references it.
// The check is typed, so a method value, a renamed import or a type
// conversion counts as a reference; test files never do.
//
// A method is exempt when its receiver type implements an interface of
// the type-checked program with a method of that name (String,
// MarshalJSON, heap.Interface, netsim.Handler, ...): such a call may
// go through the interface. The analyzer is silent unless the pass
// holds every package of the module, since a partial load cannot see
// every caller. Cascades (a name used only by another dead name) show
// on the next run after the first is deleted.
var Deadexport = &Analyzer{
	Name: "deadexport",
	Doc:  "report exported names that no non-test code of the module uses",
	Run:  runDeadexport,
}

func runDeadexport(pass *Pass) error {
	if len(pass.Packages) == 0 {
		return nil
	}
	whole, err := wholeModule(pass.Packages)
	if err != nil || !whole {
		return err
	}
	used := make(map[types.Object]map[string]token.Pos)
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				markUses(pkg, decl, used)
			}
		}
	}
	ifaces := interfacesByMethod(pass.Packages)
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				for _, d := range exportedDecls(pkg, decl) {
					checkOnly(pass, d, used[d.obj])
					if fn, ok := d.obj.(*types.Func); ok && satisfiesInterface(fn, ifaces) {
						continue
					}
					reportDead(pass, d, len(used[d.obj]) > 0)
				}
			}
		}
	}
	return nil
}

// declared is one exported package-level name or method with the doc
// comments that may carry its //apna:testonly or //apna:only directive.
type declared struct {
	obj  types.Object
	pos  token.Pos
	docs []*ast.CommentGroup
}

func reportDead(pass *Pass, d declared, used bool) {
	name := qualifiedName(d.obj)
	reason, marked := d.directive("testonly")
	switch {
	case marked && reason == "":
		pass.Reportf(d.pos, "//apna:testonly on %s needs a reason: name the test that observes production behaviour through it", name)
	case marked && used:
		pass.Reportf(d.pos, "stale //apna:testonly: %s has a non-test caller", name)
	case !marked && !used:
		pass.Reportf(d.pos, "%s is exported but no non-test code in the module uses it: delete it, move it into a _test.go file, or mark it //apna:testonly <reason>", name)
	}
}

// checkOnly enforces d's //apna:only mark, if it has one, against the
// packages that reference d (import path -> first reference).
func checkOnly(pass *Pass, d declared, users map[string]token.Pos) {
	list, marked := d.directive("only")
	if !marked {
		return
	}
	name := qualifiedName(d.obj)
	allowed := strings.Fields(list)
	if len(allowed) == 0 {
		pass.Reportf(d.pos, "//apna:only on %s needs the import paths that may use it", name)
		return
	}
	for _, path := range allowed {
		if _, ok := users[path]; !ok {
			pass.Reportf(d.pos, "stale //apna:only: %s lists %s, whose non-test code no longer uses it", name, path)
		}
	}
	for path, pos := range users {
		if !slices.Contains(allowed, path) {
			pass.Reportf(pos, "%s is //apna:only %s: %s may not use it", name, list, path)
		}
	}
}

// directive returns the text after the first //apna:<name> directive in
// d's doc comments; marked is false when there is none.
func (d declared) directive(name string) (arg string, marked bool) {
	for _, doc := range d.docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix+name)
			if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

func qualifiedName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			if named := receiverNamed(recv.Type()); named != nil {
				return obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// exportedDecls lists the exported names a top-level declaration
// introduces.
func exportedDecls(pkg *Package, decl ast.Decl) []declared {
	var out []declared
	add := func(id *ast.Ident, docs ...*ast.CommentGroup) {
		if obj := pkg.Info.Defs[id]; obj != nil && id.IsExported() {
			out = append(out, declared{obj: obj, pos: id.Pos(), docs: docs})
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		add(d.Name, d.Doc)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(s.Name, s.Doc, d.Doc)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id, s.Doc, d.Doc)
				}
			}
		}
	}
	return out
}

// markUses records every object a declaration references, with the
// first reference from each package, except the objects the declaration
// itself defines: a recursive call, a method's receiver naming its own
// type or a constant's iota are not uses.
func markUses(pkg *Package, decl ast.Decl, used map[types.Object]map[string]token.Pos) {
	mark := func(n ast.Node, self ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := origin(pkg.Info.Uses[id])
			if obj == nil {
				return true
			}
			for _, s := range self {
				if obj == s {
					return true
				}
			}
			if used[obj] == nil {
				used[obj] = make(map[string]token.Pos)
			}
			if _, ok := used[obj][pkg.ImportPath]; !ok {
				used[obj][pkg.ImportPath] = id.Pos()
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		fn := pkg.Info.Defs[d.Name]
		if d.Recv != nil {
			var recvType types.Object
			if named := receiverNamed(fn.(*types.Func).Signature().Recv().Type()); named != nil {
				recvType = named.Obj()
			}
			mark(d.Recv, fn, recvType)
		}
		mark(d.Type, fn)
		if d.Body != nil {
			mark(d.Body, fn)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var self []types.Object
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self = append(self, pkg.Info.Defs[s.Name])
			case *ast.ValueSpec:
				for _, id := range s.Names {
					self = append(self, pkg.Info.Defs[id])
				}
			}
			mark(spec, self...)
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// interfacesByMethod indexes, by method name, every named interface of
// the program the packages import (standard library included) and
// every interface type the packages themselves spell out.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	index := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || !iface.IsMethodSet() {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			index[name] = append(index[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Pkg)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return index
}

// satisfiesInterface reports whether fn is a method whose receiver type
// implements an interface that has a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := receiverNamed(recv.Type())
	if named == nil {
		return false
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// wholeModule reports whether pkgs hold every package of the module
// they belong to: every directory under the go.mod directory (skipping
// testdata, hidden and nested-module trees) with a buildable non-test
// Go file.
func wholeModule(pkgs []*Package) (bool, error) {
	loaded := make(map[string]bool)
	for _, p := range pkgs {
		loaded[filepath.Clean(p.Dir)] = true
	}
	root := filepath.Clean(pkgs[0].Dir)
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return false, nil
		}
		root = parent
	}
	whole := true
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return fs.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return fs.SkipDir
			}
		}
		bp, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		if len(bp.GoFiles) > 0 && !loaded[path] {
			whole = false
			return fs.SkipAll
		}
		return nil
	})
	return whole, err
}
