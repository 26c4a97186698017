package mcmdist

// A documentation lint: every exported identifier of the public package —
// and of internal/mpi and the transport-layer packages, whose exported
// surface other processes program against — must carry a doc comment. This
// keeps deliverable (e) — "doc comments on every public item" — enforced by
// CI rather than by review.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAllExportedSymbolsDocumented(t *testing.T) {
	// The public package, internal/mpi (the transport seam tcpnet and the
	// repo benchmark program against) and the packages added by the
	// transport layer, whose exported surface other processes program
	// against.
	dirs := []string{".", "internal/mpi", "internal/mpi/tcpnet", "internal/distjob", "cmd/mcmrank"}
	fset := token.NewFileSet()
	var undocumented []string
	var files []string
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, filepath.Join(dir, name))
		}
	}
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					undocumented = append(undocumented, name+": func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
							undocumented = append(undocumented, name+": type "+sp.Name.Name)
						}
						// Exported struct fields.
						if st, ok := sp.Type.(*ast.StructType); ok && sp.Name.IsExported() {
							for _, fld := range st.Fields.List {
								for _, fn := range fld.Names {
									if fn.IsExported() && fld.Doc == nil && fld.Comment == nil {
										undocumented = append(undocumented,
											name+": field "+sp.Name.Name+"."+fn.Name)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, vn := range sp.Names {
							if vn.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
								undocumented = append(undocumented, name+": value "+vn.Name)
							}
						}
					}
				}
			}
		}
	}
	if len(undocumented) > 0 {
		t.Errorf("%d exported symbols lack doc comments:\n  %s",
			len(undocumented), strings.Join(undocumented, "\n  "))
	}
}
