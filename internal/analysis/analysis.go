// Package analysis is apna-lint: a suite of static analyzers that turn
// the repository's paper-level invariants — determinism of seeded
// artifacts, zero allocations on the forwarding hot path, and
// verify-before-trust in the accountability plane — into build-time
// errors, the way go vet's printf checker made a class of bugs
// unwritable.
//
// The suite is deliberately self-contained: it is built on go/ast and
// go/types plus the go command only (no golang.org/x/tools dependency,
// which the build environment does not vendor), but it mirrors the
// go/analysis architecture — an Analyzer value per check, a Pass
// carrying the loaded packages, positional Diagnostics — so the
// analyzers could be ported to a multichecker with mechanical changes.
//
// Analyzers:
//
//   - detwall: forbids wall-clock reads (time.Now, time.Since,
//     time.Until), global math/rand top-level functions, and map
//     iteration leaking into output ordering inside the deterministic
//     packages. //apna:wallclock sanctions measurement call sites
//     outside those packages.
//   - hotpath: propagates //apna:hotpath through the static call graph
//     and reports heap allocations, mutex acquisition and channel
//     operations reachable from the annotated roots — the static face
//     of the E8 "0 allocs/op" bench gate.
//   - verifyfirst: flags accountability/aa state mutation reachable
//     before the dominating signature verification in the same
//     function.
//   - wrapcheck: enforces the %w error-chaining convention in
//     internal/ non-test code.
//   - nilness: a minimal known-nil-dereference check (the toolchain's
//     go vet does not ship the x/tools nilness analyzer, so apna-lint
//     carries the common cases).
//   - deadexport: on a whole-module pass, reports exported names in
//     any package of the module, the root facade included, that no
//     non-test code of the module uses;
//     //apna:testonly <reason> keeps one that a test in another
//     package observes production behaviour through, and
//     //apna:only <import path>... keeps a name to the listed
//     packages, which is how the architecture's single paths (one
//     verifier, one AS constructor, one issuance path) are held.
//   - directives: reports unknown, misplaced or stale //apna:
//     directives.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package under analysis.
type Package struct {
	// ImportPath is the package's import path ("apna/internal/border"),
	// or the synthetic path given to LoadDir for testdata packages.
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	directives map[string][]directive // filename -> sorted by line
}

// Pass is one analyzer's view of the whole target set. Unlike
// go/analysis, a Pass spans every loaded package at once: hotpath needs
// the cross-package call graph, and the other analyzers simply loop.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package

	diags []Diagnostic
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the loaded packages and returns every
// diagnostic, sorted by position then analyzer name.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Packages: pkgs}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		out = append(out, pass.diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detwall, Hotpath, Verifyfirst, Wrapcheck, Nilness, Deadexport, Directives}
}

// ---- directives ----
//
// apna-lint directives are machine-readable comments in the //apna:name
// form (no space after //, mirroring //go:build):
//
//	//apna:wallclock     sanctions a wall-clock read on the same or the
//	                     next line (measurement code only; ignored — and
//	                     reported — inside deterministic packages)
//	//apna:hotpath       on a function declaration's doc comment: marks
//	                     a hot-path root for the hotpath analyzer
//	//apna:coldpath      on a statement: the subtree is an amortized
//	                     cold branch; hotpath neither checks it nor
//	                     follows calls made inside it
//	//apna:alloc-ok      sanctions one allocation-class finding on the
//	                     same or the next line (amortized or pre-sized)
//	//apna:verify-exempt on a function declaration: verifyfirst skips
//	                     the function
//	//apna:unordered     on a range statement: the map iteration is
//	                     order-insensitive in a way the heuristics
//	                     cannot see
//	//apna:testonly R    on a declaration's doc comment: an exported
//	                     name in internal/ that only tests call,
//	                     through which a test in another package
//	                     observes production behaviour; R says which
//	                     test and is required (deadexport)
//	//apna:only P...     on a declaration's doc comment: only the
//	                     non-test code of the listed import paths may
//	                     reference the exported name, and each of them
//	                     must (deadexport)
//
// A directive anywhere else is itself a diagnostic (misplaced or stale
// annotations must not rot silently).

const directivePrefix = "//apna:"

var knownDirectives = map[string]bool{
	"wallclock":     true,
	"hotpath":       true,
	"coldpath":      true,
	"alloc-ok":      true,
	"verify-exempt": true,
	"unordered":     true,
	"testonly":      true,
	"only":          true,
}

type directive struct {
	name string
	pos  token.Pos
	line int
}

// scanDirectives indexes every //apna: comment in the package by file
// and line, once.
func (p *Package) scanDirectives(fset *token.FileSet) {
	if p.directives != nil {
		return
	}
	p.directives = make(map[string][]directive)
	for _, f := range p.Files {
		filename := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				name := strings.TrimPrefix(c.Text, directivePrefix)
				if i := strings.IndexAny(name, " \t"); i >= 0 {
					name = name[:i]
				}
				p.directives[filename] = append(p.directives[filename], directive{
					name: name,
					pos:  c.Pos(),
					line: fset.Position(c.Pos()).Line,
				})
			}
		}
	}
}

// directiveAt reports whether a directive `name` annotates the node at
// pos: on the same line (trailing comment) or the line immediately
// above (full-line comment).
func (p *Package) directiveAt(fset *token.FileSet, pos token.Pos, name string) bool {
	p.scanDirectives(fset)
	position := fset.Position(pos)
	for _, d := range p.directives[position.Filename] {
		if d.name == name && (d.line == position.Line || d.line == position.Line-1) {
			return true
		}
	}
	return false
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// funcDirective reports whether the function declaration carries the
// directive in its doc comment.
func funcDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == directivePrefix+name || strings.HasPrefix(c.Text, directivePrefix+name+" ") {
			return true
		}
	}
	return false
}

// Directive placement is validated structurally by the Directives
// analyzer (directive.go): a directive that no longer annotates the
// kind of node that honors it — a //apna:hotpath whose function was
// deleted, an //apna:wallclock floating between declarations — is
// itself a diagnostic, so stale annotations cannot rot silently.
