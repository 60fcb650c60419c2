package apna

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestFacadeAPI pins the package's exported surface to testdata/api.txt,
// one sorted line per exported const, var, type, func, method and
// struct field, in the style of Go's own api/*.txt files. The lines are
// built from the syntax of the non-test files alone. A change to the
// surface fails here with the lines it adds and removes; update the
// golden by hand, so that every change to the surface is reviewed
// there.
func TestFacadeAPI(t *testing.T) {
	got, err := facadeAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if slices.Equal(want, got) {
		return
	}
	added, removed := lineDiff(want, got)
	for _, l := range added {
		t.Errorf("not in testdata/api.txt: %s", l)
	}
	for _, l := range removed {
		t.Errorf("in testdata/api.txt but gone: %s", l)
	}
	if len(added)+len(removed) == 0 {
		t.Error("testdata/api.txt is not sorted, or repeats a line")
	}
}

// lineDiff returns the lines of got missing from want and the lines of
// want missing from got.
func lineDiff(want, got []string) (added, removed []string) {
	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
		if !inWant[l] {
			added = append(added, l)
		}
	}
	for _, l := range want {
		if !inGot[l] {
			removed = append(removed, l)
		}
	}
	return added, removed
}

// facadeAPI parses the non-test Go files of dir and returns the sorted
// API lines of their exported declarations.
func facadeAPI(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var lines []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			lines = append(lines, apiLines(fset, f.Name.Name, decl)...)
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// apiLines renders the exported names one declaration introduces.
func apiLines(fset *token.FileSet, pkg string, decl ast.Decl) []string {
	src := func(n ast.Node) string {
		var b bytes.Buffer
		printer.Fprint(&b, fset, n)
		return strings.Join(strings.Fields(b.String()), " ")
	}
	prefix := "pkg " + pkg + ", "
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		sig := strings.TrimPrefix(src(unnamed(d.Type)), "func")
		if d.Recv == nil {
			return []string{prefix + "func " + d.Name.Name + sig}
		}
		recv := d.Recv.List[0].Type
		if !ast.IsExported(baseTypeName(recv)) {
			return nil
		}
		return []string{prefix + "method (" + src(recv) + ") " + d.Name.Name + sig}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for i, id := range s.Names {
					if !id.IsExported() {
						continue
					}
					line := prefix + d.Tok.String() + " " + id.Name
					if s.Type != nil {
						line += " " + src(s.Type)
					}
					if i < len(s.Values) {
						line += " = " + src(s.Values[i])
					}
					out = append(out, line)
				}
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				head := prefix + "type " + s.Name.Name
				if s.TypeParams != nil {
					var params []string
					for _, f := range s.TypeParams.List {
						for _, id := range f.Names {
							params = append(params, id.Name+" "+src(f.Type))
						}
					}
					head += "[" + strings.Join(params, ", ") + "]"
				}
				out = append(out, typeLines(head, s, src)...)
			}
		}
	}
	return out
}

// typeLines renders a type declaration: one line for the type, and for
// a struct or interface one line per exported field or method.
func typeLines(head string, s *ast.TypeSpec, src func(ast.Node) string) []string {
	if s.Assign.IsValid() {
		return []string{head + " = " + src(s.Type)}
	}
	var members *ast.FieldList
	switch t := s.Type.(type) {
	case *ast.StructType:
		head += " struct"
		members = t.Fields
	case *ast.InterfaceType:
		head += " interface"
		members = t.Methods
	default:
		return []string{head + " " + src(s.Type)}
	}
	out := []string{head}
	for _, f := range members.List {
		if len(f.Names) == 0 {
			if ast.IsExported(baseTypeName(f.Type)) {
				out = append(out, head+", embedded "+src(f.Type))
			}
			continue
		}
		for _, id := range f.Names {
			if !id.IsExported() {
				continue
			}
			if ft, ok := f.Type.(*ast.FuncType); ok {
				out = append(out, head+", "+id.Name+strings.TrimPrefix(src(unnamed(ft)), "func"))
			} else {
				out = append(out, head+", "+id.Name+" "+src(f.Type))
			}
		}
	}
	return out
}

// unnamed returns a copy of ft without parameter and result names, one
// field per parameter, so that renaming a parameter is not an API
// change.
func unnamed(ft *ast.FuncType) *ast.FuncType {
	strip := func(fl *ast.FieldList) *ast.FieldList {
		if fl == nil {
			return nil
		}
		out := &ast.FieldList{}
		for _, f := range fl.List {
			for range max(len(f.Names), 1) {
				out.List = append(out.List, &ast.Field{Type: f.Type})
			}
		}
		return out
	}
	return &ast.FuncType{TypeParams: ft.TypeParams, Params: strip(ft.Params), Results: strip(ft.Results)}
}

// baseTypeName returns the name of the type a receiver or embedded
// field expression names: T, *T, T[P], *pkg.T all give T.
func baseTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return baseTypeName(t.X)
	case *ast.IndexExpr:
		return baseTypeName(t.X)
	case *ast.IndexListExpr:
		return baseTypeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}
