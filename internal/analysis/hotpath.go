package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath propagates //apna:hotpath from annotated root declarations
// (the E8-gated forwarding entry points: pipeline Process/ProcessBatch,
// RevocationList.Contains, the hostdb lock-free getters, Sealer.Open,
// Router.LookupRoute) through the static call graph, and reports
// anything reachable that the "0 allocs/op, lock-free" contract
// forbids: heap allocations (make/new, escaping composite literals,
// append growth, fmt and string building, interface boxing), mutex
// acquisition, channel operations and goroutine spawns.
//
// The analyzer is deliberately pessimistic about allocations — it has
// no escape analysis — so two directives document the sanctioned
// amortized cases instead of weakening the check: //apna:alloc-ok on a
// line sanctions one allocation-class finding (pre-sized appends,
// pooled buffers), and //apna:coldpath on a statement excludes an
// amortized cold branch (cache-miss population) from traversal
// entirely. Dynamic calls (interface methods, function-typed fields
// like Router.now) are outside the static graph; the runtime
// AllocsPerRun tests remain the backstop for those.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "report allocations, locks and channel ops reachable from //apna:hotpath roots",
	Run:  runHotpath,
}

// funcNode is one declared function in the analyzed set.
type funcNode struct {
	pkg *Package
	fn  *ast.FuncDecl
}

var hotSizes = types.SizesFor("gc", "amd64")

func runHotpath(pass *Pass) error {
	// Index every declared function across the target set.
	index := make(map[*types.Func]funcNode)
	var roots []*types.Func
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				index[obj] = funcNode{pkg, fn}
				if funcDirective(fn, "hotpath") {
					roots = append(roots, obj)
				}
			}
		}
	}

	// Breadth-first propagation from the roots; rootOf remembers which
	// annotated root made each function hot, for the diagnostic text.
	rootOf := make(map[*types.Func]*types.Func)
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		rootOf[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		node := index[obj]
		root := rootOf[obj]
		hotpathFunc(pass, node, obj, root, func(callee *types.Func) {
			callee = callee.Origin()
			if _, declared := index[callee]; !declared {
				return
			}
			if _, seen := rootOf[callee]; seen {
				return
			}
			rootOf[callee] = root
			queue = append(queue, callee)
		})
	}
	return nil
}

// calleeOf statically resolves a call expression to a declared
// function, unwrapping parens and generic instantiation. Interface
// methods and function-typed values resolve to nil.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = f.X
			continue
		case *ast.IndexListExpr:
			fun = f.X
			continue
		}
		break
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// hotpathFunc walks one hot function, reporting violations and feeding
// statically-resolved callees to visit. Subtrees annotated
// //apna:coldpath are neither checked nor traversed.
func hotpathFunc(pass *Pass, node funcNode, self, root *types.Func, visit func(*types.Func)) {
	pkg := node.pkg
	where := func() string {
		if self == root {
			return "in hot-path root " + self.Name()
		}
		return "in " + self.Name() + " (hot via //apna:hotpath root " + root.Name() + ")"
	}
	allocReport := func(pos token.Pos, what string) {
		if pkg.directiveAt(pass.Fset, pos, "alloc-ok") {
			return
		}
		pass.Reportf(pos, "%s %s: the E8 gate requires 0 allocs/op (annotate //apna:alloc-ok if amortized or pre-sized)", what, where())
	}
	hardReport := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s %s: the forwarding plane is lock-free and share-nothing", what, where())
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if stmt, ok := n.(ast.Stmt); ok && pkg.directiveAt(pass.Fset, stmt.Pos(), "coldpath") {
			return false
		}
		switch e := n.(type) {
		case *ast.SendStmt:
			hardReport(e.Pos(), "channel send")
		case *ast.SelectStmt:
			hardReport(e.Pos(), "select")
		case *ast.GoStmt:
			hardReport(e.Pos(), "goroutine spawn")
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				hardReport(e.Pos(), "channel receive")
			}
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					allocReport(e.Pos(), "address-of composite literal (may escape)")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := pkg.Info.Types[e]; ok && isString(tv.Type) {
					allocReport(e.Pos(), "string concatenation")
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[e.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					hardReport(e.Pos(), "channel range")
				}
			}
		case *ast.CallExpr:
			hotpathCall(pkg, e, allocReport, hardReport, visit)
		}
		return true
	}
	ast.Inspect(node.fn.Body, walk)
}

// hotpathCall classifies one call expression inside a hot function.
// visit may be nil (directive-placement validation reuses the
// classifier without traversing).
func hotpathCall(pkg *Package, call *ast.CallExpr,
	allocReport func(token.Pos, string), hardReport func(token.Pos, string), visit func(*types.Func)) {

	// Conversions: []byte(s), string(b), []rune(s) copy.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if at, ok := pkg.Info.Types[call.Args[0]]; ok && conversionAllocates(tv.Type, at.Type) {
			allocReport(call.Pos(), "string/[]byte conversion copies")
		}
		return
	}

	switch {
	case isBuiltinCall(pkg, call, "make"):
		allocReport(call.Pos(), "make")
		return
	case isBuiltinCall(pkg, call, "new"):
		allocReport(call.Pos(), "new")
		return
	case isBuiltinCall(pkg, call, "append"):
		allocReport(call.Pos(), "append (may grow the backing array)")
		return
	}

	if fn := calleeOf(pkg, call); fn != nil {
		if fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt":
				allocReport(call.Pos(), "fmt."+fn.Name())
			case "errors":
				if fn.Name() == "New" {
					allocReport(call.Pos(), "errors.New")
				}
			case "sync":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					switch fn.Name() {
					case "Lock", "RLock", "TryLock", "TryRLock":
						hardReport(call.Pos(), "sync mutex acquisition ("+fn.Name()+")")
					}
				}
			}
		}
		if visit != nil {
			visit(fn)
		}
	}

	// Interface boxing at argument positions: a concrete, non-pointer-
	// shaped, non-zero-size value passed where an interface is expected
	// heap-allocates the box.
	sig := callSignature(pkg, call)
	if sig == nil || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		t := types.Default(at.Type)
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			continue // interface-to-interface: no box
		}
		if pointerShaped(t) || hotSizes.Sizeof(t) == 0 {
			continue
		}
		allocReport(arg.Pos(), "passing "+t.String()+" boxes into an interface")
	}
}

// callSignature returns the call's static signature, or nil for
// builtins and conversions.
func callSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// conversionAllocates reports whether converting from -> to copies to a
// fresh allocation (string <-> []byte/[]rune in either direction).
func conversionAllocates(to, from types.Type) bool {
	toSlice, toIsSlice := to.Underlying().(*types.Slice)
	fromSlice, fromIsSlice := from.Underlying().(*types.Slice)
	switch {
	case isString(from) && toIsSlice:
		return isByteOrRune(toSlice.Elem())
	case isString(to) && fromIsSlice:
		return isByteOrRune(fromSlice.Elem())
	}
	return false
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit an interface word
// directly (no allocation on conversion).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
