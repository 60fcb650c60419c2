package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// VerifyFirstPackages are the accountability-plane packages where the
// paper's attributability and shutoff-correctness arguments assume
// verify-before-trust: no state may change on behalf of a message whose
// signature has not been checked (Figure 5's aborts; PR 8's
// "relays cannot forge — enqueue only after verify").
var VerifyFirstPackages = map[string]bool{
	"apna/internal/accountability": true,
	"apna/internal/aa":             true,
}

// Verifyfirst flags state mutation — map writes and deletes, appends
// into struct fields (relay-queue enqueues), channel sends — that is
// reachable before the first signature verification in a function that
// performs one. The check is lexical within the function body: a
// mutation positioned before the dominating ed25519/cert Verify call is
// exactly the "stray pre-verification enqueue" the analyzer exists to
// make unwritable. Functions whose verification deliberately happens in
// the caller carry no Verify call and are skipped; a function that must
// mutate first (e.g. an idempotency-cache probe) is annotated
// //apna:verify-exempt on its declaration.
var Verifyfirst = &Analyzer{
	Name: "verifyfirst",
	Run:  runVerifyfirst,
}

func runVerifyfirst(pass *Pass) error {
	for _, pkg := range pass.Packages {
		if !VerifyFirstPackages[pkg.ImportPath] {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || funcDirective(fn, "verify-exempt") {
					continue
				}
				verifyfirstFunc(pass, pkg, fn)
			}
		}
	}
	return nil
}

// isVerifyCall reports whether the call is a signature verification:
// any function or method whose name starts with Verify (cert.Verify,
// VerifySignature, VerifyEvidence, crypto.Verify, ...) or
// ed25519.Verify itself.
func isVerifyCall(pkg *Package, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	if !strings.HasPrefix(id.Name, "Verify") && id.Name != "Verify" {
		return false
	}
	// Exclude verification *constructors* and locals shadowing the
	// convention: the callee must be a function.
	_, ok := pkg.Info.Uses[id].(*types.Func)
	return ok
}

// verifyfirstFunc reports mutations positioned before the function's
// first verification call.
func verifyfirstFunc(pass *Pass, pkg *Package, fn *ast.FuncDecl) {
	firstVerify := token.NoPos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if firstVerify.IsValid() {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isVerifyCall(pkg, call) {
			firstVerify = call.Pos()
			return false
		}
		return true
	})
	if !firstVerify.IsValid() {
		return // nothing verified here; the caller holds the obligation
	}

	report := func(pos token.Pos, what string) {
		if pos < firstVerify {
			pass.Reportf(pos,
				"%s before the first signature verification in %s: verify-before-trust (move the mutation after the Verify call or annotate the function //apna:verify-exempt)",
				what, fn.Name.Name)
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.SendStmt:
			report(stmt.Pos(), "channel send")
		case *ast.CallExpr:
			if isBuiltinCall(pkg, stmt, "delete") {
				report(stmt.Pos(), "map delete")
			}
		case *ast.IncDecStmt:
			if ix, ok := stmt.X.(*ast.IndexExpr); ok && isMapIndex(pkg, ix) {
				report(stmt.Pos(), "map write")
			}
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && isMapIndex(pkg, ix) {
					report(lhs.Pos(), "map write")
				}
			}
			// Field-append: s.f = append(s.f, ...) — the relay-enqueue
			// shape. Appends into locals are harmless scratch.
			for i, rhs := range stmt.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinCall(pkg, call, "append") || i >= len(stmt.Lhs) {
					continue
				}
				if _, ok := stmt.Lhs[i].(*ast.SelectorExpr); ok {
					report(rhs.Pos(), "append to struct field (enqueue)")
				}
			}
		}
		return true
	})
}

// isMapIndex reports whether ix indexes a map.
func isMapIndex(pkg *Package, ix *ast.IndexExpr) bool {
	tv, ok := pkg.Info.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}
