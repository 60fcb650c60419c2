package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testonlySeams lists, sorted, every declaration and struct field of
// the module that carries a //apna:testonly mark: the exported names
// production does not call, and the fields it does not read, that a
// test observes production behaviour through. A new seam is a reviewed
// change to this list.
var testonlySeams = []string{
	"ap.Client.Inbox",
	"border.RemoteRevocationList.Len",
	"hostdb.Entry.RegisteredAt",
	"netsim.PathLength",
	"netsim.ReplayStats.Diverged",
	"population.OpStats.Count",
	"population.Result.AcctDuplicates",
	"population.Result.DigestBytes",
	"population.Result.DigestEntriesLast",
	"population.Result.DigestFlushes",
	"population.Result.GCReaped",
	"population.Result.HostdbHosts",
	"population.Result.HostdbShards",
	"population.Result.ModeledBytes",
	"population.Result.OffendersRevoked",
	"population.Result.OverflowIssued",
	"population.Result.PeakRSSBytes",
	"population.Result.TraceEvents",
	"session.Derivations",
	"spare.Idle",
}

// TestTestonlySeams pins the //apna:testonly marks to testonlySeams, as
// TestFacadeAPI pins the facade's surface to testdata/api.txt. A field
// mark counts as pkg.Type.Field. A mark that is on neither a
// declaration's nor a field's doc comment counts too, under its file
// and line, so it cannot hide from the list.
func TestTestonlySeams(t *testing.T) {
	var got []string
	walkModule(t, parser.ParseComments|parser.SkipObjectResolution, func(rel string, fset *token.FileSet, f *ast.File) {
		onDecl := make(map[*ast.Comment]bool)
		mark := func(doc *ast.CommentGroup, name string) {
			if doc == nil {
				return
			}
			for _, c := range doc.List {
				if isTestonlyMark(c) {
					onDecl[c] = true
					got = append(got, name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						mark(field.Doc, f.Name.Name+"."+ts.Name.Name+"."+id.Name)
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			name := f.Name.Name + "."
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
				if d.Recv != nil {
					name += recvTypeName(d.Recv.List[0].Type) + "."
				}
				name += d.Name.Name
			case *ast.GenDecl:
				doc = d.Doc
				if len(d.Specs) > 0 {
					switch s := d.Specs[0].(type) {
					case *ast.TypeSpec:
						name += s.Name.Name
					case *ast.ValueSpec:
						name += s.Names[0].Name
					}
				}
			}
			mark(doc, name)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if isTestonlyMark(c) && !onDecl[c] {
					got = append(got, rel+":"+strconv.Itoa(fset.Position(c.Pos()).Line))
				}
			}
		}
	})
	slices.Sort(got)
	if !slices.Equal(got, testonlySeams) {
		t.Errorf("//apna:testonly marks:\n  %s\nwant testonlySeams:\n  %s",
			strings.Join(got, "\n  "), strings.Join(testonlySeams, "\n  "))
	}
}

func isTestonlyMark(c *ast.Comment) bool {
	return strings.HasPrefix(c.Text, "//apna:testonly")
}
