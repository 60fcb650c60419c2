package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives validates apna-lint directive placement structurally: a
// directive only means something on the kind of node its analyzer
// reads, so one that annotates anything else — a //apna:hotpath whose
// function was deleted, an //apna:wallclock stranded away from any
// clock read, an //apna:alloc-ok on a line that no longer allocates —
// is reported instead of rotting silently as false documentation.
var Directives = &Analyzer{
	Name: "directives",
	Doc:  "report unknown, misplaced or stale //apna: directives",
	Run:  runDirectives,
}

func runDirectives(pass *Pass) error {
	for _, pkg := range pass.Packages {
		pkg.scanDirectives(pass.Fset)
		valid := validDirectiveLines(pkg, pass.Fset)
		for file, ds := range pkg.directives {
			for _, d := range ds {
				if !knownDirectives[d.name] {
					pass.Reportf(d.pos, "unknown directive //apna:%s", d.name)
					continue
				}
				lines := valid[file][d.name]
				if lines[d.line] {
					continue
				}
				pass.Reportf(d.pos,
					"misplaced or stale //apna:%s: nothing on this or the next line is a %s site (was the annotated code deleted or moved?)",
					d.name, d.name)
			}
		}
	}
	return nil
}

// validDirectiveLines computes, per file and directive name, the set of
// comment lines where that directive would be honored. A directive on
// line L annotates line L (trailing comment) or line L+1 (comment
// above), except the declaration-doc directives (hotpath,
// verify-exempt, testonly, only) which must sit inside the declaration's
// doc comment.
func validDirectiveLines(pkg *Package, fset *token.FileSet) map[string]map[string]map[int]bool {
	valid := make(map[string]map[string]map[int]bool)
	mark := func(pos token.Pos, name string, docLine bool) {
		p := fset.Position(pos)
		m := valid[p.Filename]
		if m == nil {
			m = make(map[string]map[int]bool)
			valid[p.Filename] = m
		}
		if m[name] == nil {
			m[name] = make(map[int]bool)
		}
		if docLine {
			m[name][p.Line] = true
		} else {
			m[name][p.Line] = true
			m[name][p.Line-1] = true
		}
	}

	// Declaration-doc directives: every doc-comment line carrying the
	// directive on a function declaration is valid, and testonly and
	// only on any top-level declaration's doc comment.
	markDoc := func(doc *ast.CommentGroup, names ...string) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			for _, name := range names {
				// Same acceptance rule as funcDirective: exact text or
				// directive followed by trailing text.
				if c.Text == directivePrefix+name || strings.HasPrefix(c.Text, directivePrefix+name+" ") {
					mark(c.Pos(), name, true)
				}
			}
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				markDoc(d.Doc, "hotpath", "verify-exempt", "testonly", "only")
			case *ast.GenDecl:
				markDoc(d.Doc, "testonly", "only")
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						markDoc(sp.Doc, "testonly", "only")
					case *ast.ValueSpec:
						markDoc(sp.Doc, "testonly", "only")
					}
				}
			}
		}
	}

	// wallclock: any banned clock/RNG use.
	for ident, obj := range pkg.Info.Uses {
		if _, bad := isWallclockUse(obj); bad {
			mark(ident.Pos(), "wallclock", false)
		}
	}

	// alloc-ok, coldpath, unordered: statement- and expression-level
	// sites, collected with the hotpath/detwall classifiers.
	noAlloc := func(pos token.Pos, what string) { mark(pos, "alloc-ok", false) }
	noHard := func(token.Pos, string) {}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case ast.Stmt:
				mark(e.Pos(), "coldpath", false)
				if rng, ok := n.(*ast.RangeStmt); ok {
					if tv, ok := pkg.Info.Types[rng.X]; ok {
						if isMapType(tv.Type) {
							mark(rng.Pos(), "unordered", false)
						}
					}
				}
			case *ast.CallExpr:
				hotpathCall(pkg, e, noAlloc, noHard, nil)
			case *ast.UnaryExpr:
				if e.Op == token.AND {
					if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
						mark(e.Pos(), "alloc-ok", false)
					}
				}
			case *ast.BinaryExpr:
				if e.Op == token.ADD {
					if tv, ok := pkg.Info.Types[e]; ok && isString(tv.Type) {
						mark(e.Pos(), "alloc-ok", false)
					}
				}
			}
			return true
		})
	}
	return valid
}
