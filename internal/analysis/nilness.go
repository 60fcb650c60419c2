package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Nilness is a minimal known-nil-dereference check: inside the branch
// where a comparison just established that a pointer, interface, slice
// or function value is nil, dereferencing that value panics. The
// toolchain's go vet does not ship the x/tools nilness analyzer, so
// this suite carries the high-confidence subset (the full dataflow
// version would need SSA). The check is branch-lexical: it flags
// dereferences before any reassignment of the value within the nil
// branch.
var Nilness = &Analyzer{
	Name: "nilness",
	Run:  runNilness,
}

func runNilness(pass *Pass) error {
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ifs, ok := n.(*ast.IfStmt)
				if !ok {
					return true
				}
				nilnessIf(pass, pkg, ifs)
				return true
			})
		}
	}
	return nil
}

// nilnessIf handles `if x == nil { ... }` and `if x != nil { } else
// { ... }` for a plain comparison condition.
func nilnessIf(pass *Pass, pkg *Package, ifs *ast.IfStmt) {
	cmp, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
		return
	}
	target := nilComparand(pkg, cmp)
	if target == nil {
		return
	}
	var branch ast.Stmt
	if cmp.Op == token.EQL {
		branch = ifs.Body
	} else {
		branch = ifs.Else // may be nil
	}
	if blk, ok := branch.(*ast.BlockStmt); ok && blk != nil {
		nilnessBranch(pass, pkg, target, blk)
	}
}

// nilComparand returns the non-nil side of a comparison against nil
// when it is a simple identifier or selector path of a type whose nil
// value panics on dereference.
func nilComparand(pkg *Package, cmp *ast.BinaryExpr) ast.Expr {
	var target ast.Expr
	switch {
	case isNilExpr(pkg, cmp.Y):
		target = cmp.X
	case isNilExpr(pkg, cmp.X):
		target = cmp.Y
	default:
		return nil
	}
	switch target.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return nil
	}
	tv, ok := pkg.Info.Types[target]
	if !ok || tv.Type == nil {
		return nil
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Slice, *types.Signature:
		return target
	}
	return nil
}

func isNilExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.IsNil()
}

// nilnessBranch flags dereferences of target inside the branch, up to
// the first reassignment of target.
func nilnessBranch(pass *Pass, pkg *Package, target ast.Expr, branch *ast.BlockStmt) {
	name := types.ExprString(target)
	reassigned := token.Pos(-1)
	ast.Inspect(branch, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if types.ExprString(lhs) == name {
					if reassigned < 0 || s.Pos() < reassigned {
						reassigned = s.Pos()
					}
				}
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND && types.ExprString(s.X) == name {
				// &x: taking the address re-legitimizes later writes.
				if reassigned < 0 || s.Pos() < reassigned {
					reassigned = s.Pos()
				}
			}
		}
		return true
	})
	afterAssign := func(pos token.Pos) bool { return reassigned >= 0 && pos > reassigned }

	report := func(pos token.Pos, what string) {
		if afterAssign(pos) {
			return
		}
		pass.Reportf(pos, "%s of %s, which the dominating comparison proved nil on this path", what, name)
	}
	ast.Inspect(branch, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.StarExpr:
			if types.ExprString(e.X) == name {
				report(e.Pos(), "dereference")
			}
		case *ast.SelectorExpr:
			if types.ExprString(e.X) != name {
				return true
			}
			tv, ok := pkg.Info.Types[e.X]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Pointer:
				// Field access through a nil pointer panics; method
				// calls are skipped (pointer-receiver methods may
				// handle nil by design).
				if _, isField := pkg.Info.Selections[e]; isField {
					if sel := pkg.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
						report(e.Pos(), "field access")
					}
				}
			case *types.Interface:
				report(e.Pos(), "method call on nil interface")
			}
		case *ast.IndexExpr:
			if types.ExprString(e.X) != name {
				return true
			}
			if tv, ok := pkg.Info.Types[e.X]; ok {
				if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
					report(e.Pos(), "index")
				}
			}
		case *ast.CallExpr:
			if types.ExprString(e.Fun) == name {
				if tv, ok := pkg.Info.Types[e.Fun]; ok {
					if _, isFunc := tv.Type.Underlying().(*types.Signature); isFunc {
						report(e.Pos(), "call")
					}
				}
			}
		}
		return true
	})
}
