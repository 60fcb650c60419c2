package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// Wrapcheck enforces the repo's error-chaining convention in internal/
// non-test code: an error passed to fmt.Errorf must be bound to a %w
// verb, never flattened through %v/%s (which severs the errors.Is/As
// chain — callers classifying receipt statuses and hostdb conditions
// depend on it), and never stringified via err.Error().
var Wrapcheck = &Analyzer{
	Name: "wrapcheck",
	Run:  runWrapcheck,
}

func runWrapcheck(pass *Pass) error {
	for _, pkg := range pass.Packages {
		if !strings.Contains(pkg.ImportPath, "internal/") {
			continue
		}
		errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				wrapcheckCall(pass, pkg, call, errIface)
				return true
			})
		}
	}
	return nil
}

// wrapcheckCall checks one fmt.Errorf call site.
func wrapcheckCall(pass *Pass, pkg *Package, call *ast.CallExpr, errIface *types.Interface) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // non-constant format: out of scope
	}
	verbs, exact := scanVerbs(constant.StringVal(tv.Value))
	if !exact {
		return // indexed/star verbs: out of scope
	}
	for i, arg := range call.Args[1:] {
		// Stringifying an error defeats wrapping whatever the verb.
		if c, ok := arg.(*ast.CallExpr); ok {
			if s, ok := c.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Error" && len(c.Args) == 0 {
				if xt, ok := pkg.Info.Types[s.X]; ok && types.Implements(xt.Type, errIface) {
					pass.Reportf(arg.Pos(), "err.Error() passed to fmt.Errorf: pass the error itself with %%w")
					continue
				}
			}
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if !types.Implements(at.Type, errIface) && !types.Implements(types.NewPointer(at.Type), errIface) {
			continue
		}
		if i >= len(verbs) {
			continue // printf arity is go vet's job, not ours
		}
		switch verbs[i] {
		case 'w', 'T': // %w chains; %T prints only the dynamic type
		default:
			pass.Reportf(arg.Pos(),
				"error flattened with %%%c severs the errors.Is/As chain: use %%w", verbs[i])
		}
	}
}

// scanVerbs extracts the verb letter for each argument of a printf
// format string, in order. exact is false when the format uses indexed
// arguments or * width/precision, which shift argument positions in
// ways this scanner does not model.
func scanVerbs(format string) (verbs []byte, exact bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
	flags:
		for i < len(format) {
			switch format[i] {
			case '+', '-', '#', ' ', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '.':
				i++
			case '*', '[':
				return nil, false
			default:
				break flags
			}
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		verbs = append(verbs, format[i])
	}
	return verbs, true
}
