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
// A struct field that non-test code never reads is reported too: a
// composite-literal key, an assignment target, x.f++, x.f += v and
// the x.f inside x.f = append(x.f, v) are writes, any other reference
// is a read. A read of the whole struct reads every field (and those
// of the structs it holds by value): a == or != operand, a map key,
// and a value handed to encoding/json or encoding/binary. A struct tag
// reads nothing. Embedded and blank fields are not checked.
// //apna:testonly <reason> on the field's doc keeps one that a test
// observes production behaviour through.
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
	read := make(map[types.Object]bool)
	var fields []declared
	for _, pkg := range pass.Packages {
		markFieldReads(pkg, read)
		for _, file := range pkg.Files {
			fields = append(fields, structFields(pkg, file)...)
			for _, decl := range file.Decls {
				for _, d := range exportedDecls(pkg, decl) {
					checkOnly(pass, d, used[d.obj])
					if fn, ok := d.obj.(*types.Func); ok && satisfiesInterface(fn, ifaces) {
						continue
					}
					reportDead(pass, d, len(used[d.obj]) > 0, "is exported but no non-test code in the module uses it: delete it, move it into a _test.go file", "caller")
				}
			}
		}
	}
	for _, f := range fields {
		reportDead(pass, f, read[f.obj], "is written but no non-test code in the module reads it: delete it with its writes", "reader")
	}
	return nil
}

// declared is one exported package-level name or method, or one struct
// field, with the doc comments that may carry its //apna:testonly or
// //apna:only directive.
type declared struct {
	obj  types.Object
	name string
	pos  token.Pos
	docs []*ast.CommentGroup
}

func reportDead(pass *Pass, d declared, used bool, dead, user string) {
	reason, marked := d.directive("testonly")
	switch {
	case marked && reason == "":
		pass.Reportf(d.pos, "//apna:testonly on %s needs a reason: name the test that observes production behaviour through it", d.name)
	case marked && used:
		pass.Reportf(d.pos, "stale //apna:testonly: %s has a non-test %s", d.name, user)
	case !marked && !used:
		pass.Reportf(d.pos, "%s %s, or mark it //apna:testonly <reason>", d.name, dead)
	}
}

// checkOnly enforces d's //apna:only mark, if it has one, against the
// packages that reference d (import path -> first reference).
func checkOnly(pass *Pass, d declared, users map[string]token.Pos) {
	list, marked := d.directive("only")
	if !marked {
		return
	}
	name := d.name
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
			out = append(out, declared{obj: obj, name: qualifiedName(obj), pos: id.Pos(), docs: docs})
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

// structFields lists the named, non-embedded struct fields a file
// declares, each named after the type, function or variable whose
// declaration holds its struct.
func structFields(pkg *Package, file *ast.File) []declared {
	var out []declared
	var walk func(n ast.Node, owner string)
	walk = func(n ast.Node, owner string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				walk(n.Type, n.Name.Name)
				return false
			case *ast.FuncDecl:
				owner = n.Name.Name
			case *ast.ValueSpec:
				owner = n.Names[0].Name
			case *ast.StructType:
				for _, f := range n.Fields.List {
					for _, id := range f.Names {
						if id.Name != "_" {
							name := pkg.Pkg.Name() + "." + owner + "." + id.Name
							out = append(out, declared{obj: pkg.Info.Defs[id], name: name, pos: id.Pos(), docs: []*ast.CommentGroup{f.Doc}})
						}
					}
				}
			}
			return true
		})
	}
	walk(file, "")
	return out
}

// markFieldReads marks every struct field that pkg's non-test code
// reads: by name anywhere but as a write, and whole (see Deadexport).
func markFieldReads(pkg *Package, read map[types.Object]bool) {
	seen := make(map[types.Type]bool) // walked deep: it may cycle
	// whole marks every field of t read, and those of the structs and
	// arrays it holds; deep also follows pointers, slices and map
	// values, as reflection does.
	var whole func(t types.Type, deep bool)
	whole = func(t types.Type, deep bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = deep
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				read[origin(u.Field(i))] = true
				whole(u.Field(i).Type(), deep)
			}
		case *types.Array:
			whole(u.Elem(), deep)
		case interface{ Elem() types.Type }: // pointer, slice, map, chan
			if deep {
				whole(u.Elem(), deep)
			}
		}
	}
	for _, tv := range pkg.Info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			whole(m.Key(), false)
		}
	}
	writes := make(map[*ast.Ident]bool)
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					write(lhs)
					if len(n.Rhs) == len(n.Lhs) {
						write(appendTarget(pkg, lhs, n.Rhs[i]))
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id] = true
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					whole(pkg.Info.TypeOf(n.X), false)
					whole(pkg.Info.TypeOf(n.Y), false)
				}
			case *ast.CallExpr: // json.Marshal(v), enc.Encode(v), binary.Write(w, o, v), ...
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					break
				}
				if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
					(fn.Pkg().Path() == "encoding/json" || fn.Pkg().Path() == "encoding/binary") {
					for _, arg := range n.Args {
						whole(pkg.Info.TypeOf(arg), true)
					}
				}
			}
			return true
		})
	}
	for id, obj := range pkg.Info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[origin(v)] = true
		}
	}
}

// appendTarget returns append's first argument when rhs appends to lhs
// itself: x.f = append(x.f, v) reads x.f only to write it back. It
// returns nil for any other right-hand side.
func appendTarget(pkg *Package, lhs, rhs ast.Expr) ast.Expr {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil
	}
	if _, ok := pkg.Info.Uses[fn].(*types.Builtin); !ok {
		return nil
	}
	if types.ExprString(ast.Unparen(lhs)) != types.ExprString(ast.Unparen(call.Args[0])) {
		return nil
	}
	return call.Args[0]
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
