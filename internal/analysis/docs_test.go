package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// checkedDocs, with every SKILL.md (the build-and-verify notes), are
// the documents whose backticked Go names and apna-* command lines must
// resolve. bench/README.md belongs to the benchmark, and the other
// documents record history or the paper: they are link-checked only.
var checkedDocs = []string{"README.md", "DESIGN.md", "cmd/README.md"}

// TestDocsResolve keeps the documentation to the code as it is:
//
//   - every relative link of every Markdown file names a file or
//     directory of the repository (code spans and fenced blocks are not
//     links);
//   - in checkedDocs, every backticked Go name resolves against the
//     type-checked module and the standard library: pkg.Name,
//     Type.Method, Type.Field, the pkg.Method shorthand and
//     Field.Method, each as far as it is dotted, and a bare camelCase or
//     CamelCase name against every declaration of the module, tests
//     included. File names and snake_case metric or span names are not
//     Go names;
//   - in checkedDocs, a backticked or fenced `apna-<cmd> ... -flag`
//     names a directory of cmd/ and flags that command defines.
func TestDocsResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	root := moduleRoot(t)
	ix := newDocIndex(t)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".md") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		doc := scanMarkdown(string(data))
		for _, l := range doc.links {
			if msg := brokenLink(filepath.Dir(p), l.text); msg != "" {
				t.Errorf("%s:%d: %s", rel, l.line, msg)
			}
		}
		if !slices.Contains(checkedDocs, rel) && filepath.Base(rel) != "SKILL.md" {
			return nil
		}
		for _, s := range doc.spans {
			for _, msg := range []string{ix.resolve(s.text), ix.command(s.text)} {
				if msg != "" {
					t.Errorf("%s:%d: `%s`: %s", rel, s.line, s.text, msg)
				}
			}
		}
		for _, s := range doc.fenced {
			if msg := ix.command(s.text); msg != "" {
				t.Errorf("%s:%d: %s: %s", rel, s.line, s.text, msg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsScanner pins the Markdown scanner on the cases that matter: a
// link-shaped code span is code, a missing target is broken, and a code
// span may wrap a line.
func TestDocsScanner(t *testing.T) {
	doc := scanMarkdown("A generic call `f[T](a, b)` is code.\n\nSee [x](missing.md) and\n[y](docs_test.go#TestDocsScanner),\n`two\nlines`.\n\n```\n[z](fenced.md)\napna-scenario -exp e8\n```\n")
	var links []string
	for _, l := range doc.links {
		links = append(links, fmt.Sprintf("%d:%s", l.line, l.text))
	}
	if want := []string{"3:missing.md", "4:docs_test.go#TestDocsScanner"}; !slices.Equal(links, want) {
		t.Errorf("links = %q, want %q", links, want)
	}
	if brokenLink(".", "missing.md") == "" {
		t.Error("a link to missing.md passes")
	}
	for _, ok := range []string{"docs_test.go#TestDocsScanner", "#anchor", "https://example.org/x.md", "testdata/"} {
		if msg := brokenLink(".", ok); msg != "" {
			t.Errorf("link %q: %s", ok, msg)
		}
	}
	if len(doc.spans) != 2 || doc.spans[0].text != "f[T](a, b)" || doc.spans[1] != (mdText{"two lines", 5}) {
		t.Errorf("spans = %+v", doc.spans)
	}
	if len(doc.fenced) != 2 || doc.fenced[1] != (mdText{"apna-scenario -exp e8", 10}) {
		t.Errorf("fenced = %+v", doc.fenced)
	}
}

// TestDocsCommandValues pins the command check: a command cmd/ does not
// hold fails, and so does a flag the command does not define, in
// either flag form; a pipe ends the line.
func TestDocsCommandValues(t *testing.T) {
	ix := &docIndex{flags: map[string][]string{"apna-scenario": {"file", "seeds"}}}
	for text, bad := range map[string]bool{
		"apna-scenario -file s.json -seeds 5":     false,
		"apna-scenario -file=s.json":              false,
		"apna-scenario -file s.json | tee -exp":   false,
		"go run ./cmd/apna-scenario -exp=e11":     true,
		"apna-scenario -file s.json -pkts 10":     true,
		"apna-gate compare pairs/base pairs/head": true,
	} {
		if msg := ix.command(text); (msg != "") != bad {
			t.Errorf("%q: %q", text, msg)
		}
	}
}

// mdText is a code span, a link target or a fenced line, with the line
// it starts on.
type mdText struct {
	text string
	line int
}

type mdDoc struct {
	spans, links, fenced []mdText
}

// scanMarkdown collects a document's inline code spans, the targets of
// its inline links outside code, and the lines of its fenced blocks. A
// code span may wrap lines but not a blank one; an unmatched backtick
// run is literal text.
func scanMarkdown(text string) mdDoc {
	var doc mdDoc
	lines := strings.Split(text, "\n")
	fence := ""
	for i, line := range lines {
		trimmed := strings.TrimLeft(line, " ")
		switch {
		case fence == "" && (strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~")):
			fence = trimmed[:3]
			lines[i] = ""
		case fence != "":
			if strings.HasPrefix(trimmed, fence) {
				fence = ""
			} else {
				doc.fenced = append(doc.fenced, mdText{line, i + 1})
			}
			lines[i] = ""
		}
	}
	start := 0
	for i := 0; i <= len(lines); i++ {
		if i < len(lines) && strings.TrimSpace(lines[i]) != "" {
			continue
		}
		if start < i {
			doc.scanBlock(strings.Join(lines[start:i], "\n"), start+1)
		}
		start = i + 1
	}
	return doc
}

// scanBlock scans one paragraph-like block that starts on line first.
func (doc *mdDoc) scanBlock(b string, first int) {
	lineAt := func(i int) int { return first + strings.Count(b[:i], "\n") }
	for i := 0; i < len(b); i++ {
		switch {
		case b[i] == '\\':
			i++
		case b[i] == '`':
			n := 1
			for i+n < len(b) && b[i+n] == '`' {
				n++
			}
			end := closingRun(b[i+n:], n)
			if end < 0 {
				i += n - 1
				continue
			}
			code := strings.ReplaceAll(b[i+n:i+n+end], "\n", " ")
			if len(code) > 2 && code[0] == ' ' && code[len(code)-1] == ' ' && strings.Trim(code, " ") != "" {
				code = code[1 : len(code)-1]
			}
			doc.spans = append(doc.spans, mdText{code, lineAt(i)})
			i += n + end + n - 1
		case strings.HasPrefix(b[i:], "]("):
			depth, j := 0, i+2
			for ; j < len(b) && (b[j] != ')' || depth > 0); j++ {
				switch b[j] {
				case '(':
					depth++
				case ')':
					depth--
				}
			}
			doc.links = append(doc.links, mdText{b[i+2 : j], lineAt(i)})
			i = j
		}
	}
}

// closingRun returns the offset in s of the next run of exactly n
// backticks, or -1.
func closingRun(s string, n int) int {
	for i := 0; i < len(s); {
		if s[i] != '`' {
			i++
			continue
		}
		j := i
		for j < len(s) && s[j] == '`' {
			j++
		}
		if j-i == n {
			return i
		}
		i = j
	}
	return -1
}

// brokenLink reports a link target, relative to dir, that names no file
// or directory; external URLs and in-page anchors pass.
func brokenLink(dir, target string) string {
	target = strings.Trim(strings.TrimSpace(target), "<>")
	if f := strings.Fields(target); len(f) > 0 {
		target = f[0] // drop a link title
	}
	target, _, _ = strings.Cut(target, "#")
	if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return ""
	}
	if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
		return "broken relative link -> " + target
	}
	return ""
}

// docIndex is what a backticked name may resolve against.
type docIndex struct {
	pkgs   map[string][]*types.Package // by package name: module and standard library
	types  map[string][]*types.TypeName
	fields map[string][]*types.Var // struct fields of the module's named types
	bare   map[string]bool         // every name the module declares, tests included, and the library exports
	flags  map[string][]string     // cmd name -> flags it defines
}

func newDocIndex(t *testing.T) *docIndex {
	t.Helper()
	l := sharedLoader(t)
	loaded, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	ix := &docIndex{
		pkgs:   make(map[string][]*types.Package),
		types:  make(map[string][]*types.TypeName),
		fields: make(map[string][]*types.Var),
		bare:   make(map[string]bool),
		flags:  make(map[string][]string),
	}
	add := func(p *types.Package, module bool) {
		ix.pkgs[p.Name()] = append(ix.pkgs[p.Name()], p)
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !module && !obj.Exported() {
				continue
			}
			ix.bare[name] = true
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			ix.types[name] = append(ix.types[name], tn)
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					ix.bare[named.Method(i).Name()] = true
				}
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					ix.bare[st.Field(i).Name()] = true
					if module {
						ix.fields[st.Field(i).Name()] = append(ix.fields[st.Field(i).Name()], st.Field(i))
					}
				}
			}
		}
	}
	for _, p := range loaded {
		add(p.Pkg, true)
		if cmd, ok := strings.CutPrefix(p.ImportPath, "apna/cmd/"); ok {
			ix.flags[cmd] = definedFlags(p)
		}
	}
	// The module requires nothing, so every import outside it is the
	// standard library; tests import packages production does not
	// (testing).
	walkModule(t, parser.SkipObjectResolution, func(_ string, _ *token.FileSet, f *ast.File) {
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); path != "apna" && !strings.HasPrefix(path, "apna/") {
				if _, err := l.Import(path); err != nil {
					t.Fatal(err)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				ix.bare[n.Name.Name] = true
			case *ast.TypeSpec:
				ix.bare[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					ix.bare[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					ix.bare[id.Name] = true
				}
			}
			return true
		})
	})
	for path, tp := range l.checked {
		if m := l.meta[path]; m != nil && m.Standard && !strings.Contains(path, "internal") {
			add(tp, false)
		}
	}
	return ix
}

// definedFlags lists the flags a command package defines through the
// flag package: the first string constant of each defining call.
func definedFlags(p *Package) []string {
	definer := regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Text|Var|Func|BoolFunc)(Var)?$`)
	var out []string
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !definer.MatchString(fn.Name()) {
				return true
			}
			for _, arg := range call.Args {
				if tv := p.Info.Types[arg]; tv.Value != nil && tv.Value.Kind() == constant.String {
					out = append(out, constant.StringVal(tv.Value))
					break
				}
			}
			return true
		})
	}
	return out
}

var (
	goName     = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	symbolForm = regexp.MustCompile(`\(\*(\w+)\)|\.func\d+$`) // cert.(*Cert).Sign; a profile's closeBatch.func1
	cmdName    = regexp.MustCompile(`(?:^|[\s/])apna-([a-z]+)\b(.*)`)
	flagWord   = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	fileExt    = []string{"go", "s", "json", "md", "txt", "mod", "yml", "sh"}
)

// resolve returns why a backticked text that reads as a Go name names
// nothing, or "" if it resolves or is not a Go name.
func (ix *docIndex) resolve(text string) string {
	s := symbolForm.ReplaceAllString(text, "$1")
	if i := strings.IndexByte(s, '('); i > 0 && strings.HasSuffix(s, ")") {
		s = s[:i] // a call: spare.Go(f), Done()
	}
	if !goName.MatchString(s) {
		return ""
	}
	segs := strings.Split(s, ".")
	if strings.Contains(s, "_") || (len(segs) > 1 && slices.Contains(fileExt, segs[len(segs)-1])) {
		return "" // a snake_case metric or span name, or a file name
	}
	first, rest := segs[0], segs[1:]
	camel := strings.ToLower(first) != first && strings.ToUpper(first) != first
	if len(rest) == 0 {
		if camel && !ix.bare[first] {
			return "no declaration of the module or the standard library has this name"
		}
		return ""
	}
	var roots []types.Type
	known := false
	for _, p := range ix.pkgs[first] {
		known = true
		if obj := p.Scope().Lookup(rest[0]); obj != nil {
			if members(obj.Type(), p, rest[1:]) {
				return ""
			}
			continue
		}
		if len(rest) == 1 && hasMethod(p, rest[0]) {
			return "" // the pkg.Method shorthand
		}
	}
	for _, tn := range ix.types[first] {
		roots = append(roots, tn.Type())
	}
	for _, f := range ix.fields[first] {
		roots = append(roots, f.Type())
	}
	for _, r := range roots {
		known = true
		if members(r, nil, rest) {
			return ""
		}
	}
	if known || camel {
		return "names nothing in the module or the standard library"
	}
	return "" // a variable of an example
}

// members reports whether the chain of field and method names resolves
// from t, a method continuing from its single result; unexported names
// resolve in the package of the named type they are looked up on.
func members(t types.Type, pkg *types.Package, chain []string) bool {
	for _, name := range chain {
		if sig, ok := t.(*types.Signature); ok && sig.Results().Len() == 1 {
			t = sig.Results().At(0).Type()
		}
		if named := receiverNamed(t); named != nil {
			pkg = named.Obj().Pkg()
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
		if obj == nil {
			return false
		}
		t = obj.Type()
	}
	return true
}

// hasMethod reports whether a named type of p has a method name.
func hasMethod(p *types.Package, name string) bool {
	scope := p.Scope()
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
			if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p, name); obj != nil {
				if _, ok := obj.(*types.Func); ok {
					return true
				}
			}
		}
	}
	return false
}

// command checks an `apna-<cmd> ... -flag` text: cmd/apna-<cmd> must be
// a command and each flag one it defines. A shell comment, pipe or
// redirection ends the command line.
func (ix *docIndex) command(text string) string {
	m := cmdName.FindStringSubmatch(text)
	if m == nil {
		return ""
	}
	flags, ok := ix.flags["apna-"+m[1]]
	if !ok {
		return "cmd/apna-" + m[1] + " is not a command"
	}
	line := m[2]
	if i := strings.IndexAny(line, "#|>;"); i >= 0 {
		line = line[:i]
	}
	for _, w := range strings.Fields(line) {
		if f := flagWord.FindStringSubmatch(w); f != nil && !slices.Contains(flags, f[1]) {
			return fmt.Sprintf("apna-%s defines no flag -%s", m[1], f[1])
		}
	}
	return ""
}
