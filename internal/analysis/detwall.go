package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterministicPackages are the packages whose behavior must be a pure
// function of the seeded simulation state: every E-series artifact hash
// and every invariant-checker verdict assumes they never read the wall
// clock, never draw from global RNG state, and never let Go's
// randomized map iteration order reach an output. detwall enforces all
// three; //apna:wallclock is NOT honored here.
var DeterministicPackages = map[string]bool{
	"apna/internal/netsim":         true,
	"apna/internal/host":           true,
	"apna/internal/ms":             true,
	"apna/internal/aa":             true,
	"apna/internal/accountability": true,
	"apna/internal/border":         true,
	"apna/internal/wire":           true,
	"apna/internal/ephid":          true,
}

// Detwall forbids wall-clock reads (time.Now, time.Since, time.Until),
// global math/rand state, and order-leaking map iteration in
// deterministic packages. Outside those packages wall-clock reads are
// still flagged unless sanctioned by //apna:wallclock, which confines
// real time to the measurement layer (engine, population, provenance,
// benchgate, cmds) where it is part of the artifact, not of the
// simulated behavior.
var Detwall = &Analyzer{
	Name: "detwall",
	Run:  runDetwall,
}

// seededRandConstructors are the math/rand top-level functions that
// build an explicitly-seeded generator instead of touching the
// package-global source: rand.New(rand.NewSource(seed)) is the repo's
// canonical deterministic idiom and must stay legal everywhere.
var seededRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// isWallclockUse reports whether obj is one of the banned time package
// functions or a global-source math/rand top-level function (methods on
// a seeded *rand.Rand and the seeded constructors are fine).
func isWallclockUse(obj types.Object) (string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if seededRandConstructors[fn.Name()] {
			return "", false
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			return fn.Pkg().Path() + "." + fn.Name(), true
		}
	}
	return "", false
}

func runDetwall(pass *Pass) error {
	for _, pkg := range pass.Packages {
		strict := DeterministicPackages[pkg.ImportPath]
		detwallClock(pass, pkg, strict)
		if strict {
			detwallMapOrder(pass, pkg)
		}
	}
	return nil
}

// detwallClock flags every use (call or function value) of a banned
// clock/RNG function.
func detwallClock(pass *Pass, pkg *Package, strict bool) {
	for ident, obj := range pkg.Info.Uses {
		name, bad := isWallclockUse(obj)
		if !bad {
			continue
		}
		if pkg.directiveAt(pass.Fset, ident.Pos(), "wallclock") {
			if !strict {
				continue
			}
			pass.Reportf(ident.Pos(),
				"%s in deterministic package %s: //apna:wallclock is not honored here — route time through the simulator clock",
				name, pkg.ImportPath)
			continue
		}
		if strict {
			pass.Reportf(ident.Pos(),
				"%s breaks seeded determinism in %s: use the simulator clock (netsim virtual time)", name, pkg.ImportPath)
		} else {
			pass.Reportf(ident.Pos(),
				"%s outside the sanctioned measurement sites: annotate the line with //apna:wallclock if this is measurement code, otherwise use the simulator clock", name)
		}
	}
}

// emitPrefixes are method-name prefixes treated as order-sensitive
// emissions: reaching one from inside a map iteration leaks Go's
// randomized iteration order into observable behavior.
var emitPrefixes = []string{
	"send", "write", "emit", "flood", "enqueue", "push", "publish", "deliver", "handle", "report",
}

// isBuiltinCall reports whether call invokes the named predeclared
// builtin (append, make, new, delete, ...).
func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

func isEmitCall(call *ast.CallExpr) (string, bool) {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return "", false
	}
	lower := strings.ToLower(name)
	for _, p := range emitPrefixes {
		if strings.HasPrefix(lower, p) {
			return name, true
		}
	}
	return "", false
}

// detwallMapOrder flags range-over-map loops whose body leaks iteration
// order: a channel send, an emission call, or an append that is never
// re-sorted before the function returns. The sanctioned idioms stay
// silent: delete/rebuild loops, counter accumulation, and the
// collect-then-sort pattern (append inside the loop, sort.* or a
// *sort*-named helper after it).
func detwallMapOrder(pass *Pass, pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			detwallMapOrderFunc(pass, pkg, fn)
		}
	}
}

func detwallMapOrderFunc(pass *Pass, pkg *Package, fn *ast.FuncDecl) {
	// sortsAfter reports whether any sort-like call starts after pos —
	// the collect-then-sort idiom.
	sortsAfter := func(pos token.Pos) bool {
		found := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() < pos {
				return true
			}
			name := ""
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok && (x.Name == "sort" || x.Name == "slices") {
					found = true
					return false
				}
				name = fun.Sel.Name
			case *ast.Ident:
				name = fun.Name
			case *ast.IndexExpr: // generic instantiation: sortX[T](...)
				if id, ok := fun.X.(*ast.Ident); ok {
					name = id.Name
				}
			}
			if strings.Contains(strings.ToLower(name), "sort") {
				found = true
				return false
			}
			return true
		})
		return found
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if pkg.directiveAt(pass.Fset, rng.Pos(), "unordered") {
			return true
		}
		ast.Inspect(rng.Body, func(b ast.Node) bool {
			switch bn := b.(type) {
			case *ast.SendStmt:
				pass.Reportf(bn.Pos(),
					"channel send inside map iteration leaks randomized order in deterministic package %s: iterate a sorted key slice", pkg.ImportPath)
			case *ast.CallExpr:
				if isBuiltinCall(pkg, bn, "append") {
					if !sortsAfter(rng.End()) {
						pass.Reportf(bn.Pos(),
							"append inside map iteration with no subsequent sort leaks randomized order in deterministic package %s: sort the result or iterate sorted keys", pkg.ImportPath)
					}
					return true
				}
				if name, ok := isEmitCall(bn); ok {
					pass.Reportf(bn.Pos(),
						"%s call inside map iteration leaks randomized order in deterministic package %s: iterate a sorted key slice", name, pkg.ImportPath)
				}
			}
			return true
		})
		return true
	})
}
