package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fuzzExempt lists the exported decoders no Fuzz target calls, each
// with the reason it needs none.
var fuzzExempt = map[string]string{
	"aa.DecodeRequest":                "reached through accountability.DecodeComplaint, which FuzzDecodeDigest drives",
	"ms.DecodeReply":                  "called only by tests and bench/; hosts open replies with ms.OpenReply",
	"analysis.ParseDirFiles":          "parses source files, not network input",
	"scenario.Duration.UnmarshalJSON": "reached through scenario.Parse, which FuzzScenarioSpec drives",
}

// decoder is an exported Decode*, Parse* or Unmarshal* function or
// method declared in a non-test file.
type decoder struct {
	pkg        string // import path
	recv, name string
	key        string // "pkgname.[Recv.]Name", fuzzExempt's form
}

// TestEveryDecoderIsFuzzed keeps "every byte that arrives from the
// network goes through a fuzzed decoder" true as decoders are added:
// each exported Decode*/Parse*/Unmarshal* must be called in the body of
// some Fuzz* target, or be on fuzzExempt. Calls are matched by name:
// pkg.Func or Func for a function, any x.Method in a file of the
// method's package or importing it for a method.
func TestEveryDecoderIsFuzzed(t *testing.T) {
	var decoders []decoder
	// Calls made in Fuzz bodies, keyed {import path, name}: funcCalls of
	// package-level functions, methodCalls of a method of that name on
	// a type of a package the file is in or imports.
	funcCalls := make(map[[2]string]bool)
	methodCalls := make(map[[2]string]bool)

	walkModule(t, parser.SkipObjectResolution, func(rel string, _ *token.FileSet, f *ast.File) {
		pkg := path.Join("apna", path.Dir(rel))
		if !strings.HasSuffix(rel, "_test.go") {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || !isDecoderName(fn.Name.Name) {
					continue
				}
				dec := decoder{pkg: pkg, name: fn.Name.Name, key: f.Name.Name + "."}
				if fn.Recv != nil {
					dec.recv = recvTypeName(fn.Recv.List[0].Type)
					dec.key += dec.recv + "."
				}
				dec.key += dec.name
				decoders = append(decoders, dec)
			}
			return
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := c.Fun.(type) {
				case *ast.Ident:
					funcCalls[[2]string{pkg, fun.Name}] = true
				case *ast.SelectorExpr:
					if x, ok := fun.X.(*ast.Ident); ok && imports[x.Name] != "" {
						funcCalls[[2]string{imports[x.Name], fun.Sel.Name}] = true
						return true
					}
					methodCalls[[2]string{pkg, fun.Sel.Name}] = true
					for _, ip := range imports {
						methodCalls[[2]string{ip, fun.Sel.Name}] = true
					}
				}
				return true
			})
		}
	})

	var unfuzzed, stale []string
	exempt := 0
	for _, dec := range decoders {
		fuzzed := funcCalls[[2]string{dec.pkg, dec.name}]
		if dec.recv != "" {
			fuzzed = methodCalls[[2]string{dec.pkg, dec.name}]
		}
		_, listed := fuzzExempt[dec.key]
		switch {
		case listed && fuzzed:
			stale = append(stale, dec.key)
		case listed:
			exempt++
		case !fuzzed:
			unfuzzed = append(unfuzzed, dec.key)
		}
	}
	sort.Strings(unfuzzed)
	for _, key := range unfuzzed {
		t.Errorf("%s decodes input but no Fuzz target calls it: call it from one, or add it to fuzzExempt with the reason", key)
	}
	for _, key := range stale {
		t.Errorf("%s is on fuzzExempt but a Fuzz target calls it: drop the entry", key)
	}
	if exempt != len(fuzzExempt) {
		t.Errorf("fuzzExempt has %d entries, %d of them name a decoder in the module", len(fuzzExempt), exempt)
	}
	if len(decoders) == 0 {
		t.Fatal("found no decoders: the walk is broken")
	}
	t.Logf("%d decoders, %d fuzzed, %d exempt", len(decoders), len(decoders)-exempt-len(unfuzzed), exempt)
}

func isDecoderName(name string) bool {
	for _, p := range []string{"Decode", "Parse", "Unmarshal"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// recvTypeName names a method's receiver type: T for T, *T, T[P] or
// *T[P].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
