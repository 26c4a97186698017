package mcmdist

// A dead-surface lint over two scopes. Every exported identifier declared
// under internal/ must be reached from some non-test file of the module or
// of the repo benchmark: an export that only its own tests call is code kept
// alive by nothing the solver runs; it is deleted, or moved into the test
// that needs it. The public mcmdist package answers to a stricter rule,
// since its callers live outside it: its exported functions, methods and
// variables must be reached from examples/, cmd/ or benchmark/; a type may
// also be reached by a declaration of the package itself (a signature, a
// field, an alias), though not by a function body or a method receiver,
// which no caller sees; and a typed constant is reached when its type is. Struct fields of the
// public package are exempt. The check type-checks every non-test package
// with the standard library's go/types and counts each use of every
// declared object, with where it came from.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// rootPath is the import path of the public package.
const rootPath = "mcmdist"

// deadExportAllowlist names the exports that the rule of their scope does
// not reach but that stay, each with the reason it stays. Keys are
// "<import path>.<Name>" or "<import path>.<Type>.<Method or field>".
var deadExportAllowlist = map[string]string{
	"mcmdist.CoordinateTCP":                "rank 0 of a multi-process TCP world built by the caller's own launcher (docs/TRANSPORT.md); cmd/mcm coordinates through tcpnet to ship its job spec",
	"mcmdist.FromMatrixMarket":             "reads the paper's SuiteSparse inputs from a stream; cmd/mcm ships its -in file in the job spec and parses it internally",
	"mcmdist.FromMatrixMarketFile":         "FromMatrixMarket for a file on disk",
	"mcmdist.Graph.Verify":                 "structural validity check of a caller's matching, the precondition VerifyMaximum, HallViolator and MaximumTransversal build on",
	"mcmdist.JoinTCP":                      "worker half of CoordinateTCP for the caller's own launcher; cmd/mcmrank joins through tcpnet to read its job spec",
	"mcmdist.ObsReport.WriteTimeSeriesCSV": "the one reader of the per-iteration time-series Observe.TimeSeries records",
	"mcmdist.PanicError":                   "the dynamic type of a panic converted to an error at the API boundary; callers match it with errors.As",

	"mcmdist/internal/core.Ops":                 "per-op meter table pinned by the golden trajectory test",
	"mcmdist/internal/mpi.Comm.Allgatherv":      "the per-rank allgather the mpi, tcpnet and rt tests drive every backend with; the hot paths use the lending variants",
	"mcmdist/internal/mpi.Comm.World":           "reaches a rank's world for the per-kind meter oracle of the core tests",
	"mcmdist/internal/mpi.FaultPlan.Fired":      "cross-package test oracle of the fault plane",
	"mcmdist/internal/mpi.World.RankKindMeter":  "cross-package test oracle of the per-kind meters",
	"mcmdist/internal/mpi.World.TotalMeter":     "cross-package test oracle of the world meter",
	"mcmdist/internal/mpi/tcpnet.Net.WireStats": "wire-accounting oracle of the tcpnet tests",
	"mcmdist/internal/mtx.WriteFile":            "writes the Matrix Market fixtures tests read back",
	"mcmdist/internal/rt.NewDisabled":           "reference context of the pooled-vs-unpooled equivalence tests",
	"mcmdist/internal/spmat.CSC.Equal":          "cross-package test oracle",
	"mcmdist/internal/spmat.CSC.Triples":        "cross-package test oracle",
}

func TestNoDeadInternalExports(t *testing.T) {
	checkDeadExports(t, rootPath+"/internal/", "exported identifiers under internal/ have no non-test reference")
}

func TestNoDeadPublicExports(t *testing.T) {
	checkDeadExports(t, rootPath+".", "exports of the mcmdist package are not reached from examples/, cmd/ or benchmark/")
}

// loadChecker type-checks the repo once for both scopes of the lint.
var loadChecker = sync.OnceValues(func() (*deadExportChecker, error) {
	c := newDeadExportChecker()
	return c, c.loadRepo()
})

// checkDeadExports applies the lint to the declared identifiers whose keys
// start with prefix, and checks the allowlist entries of that scope.
func checkDeadExports(t *testing.T, prefix, what string) {
	c, err := loadChecker()
	if err != nil {
		t.Fatal(err)
	}

	ifaceMethods := c.interfaceMethodNames()
	var dead []string
	for _, obj := range c.declared {
		key := objectKey(obj)
		if !strings.HasPrefix(key, prefix) || c.reached(obj) {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && ifaceMethods[fn.Name()] {
			continue
		}
		if _, ok := deadExportAllowlist[key]; ok {
			continue
		}
		dead = append(dead, key+"  ("+c.fset.Position(obj.Pos()).String()+")")
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d %s; delete them, move them into the _test.go file that needs them, "+
			"or allowlist them with a reason:\n  %s", len(dead), what, strings.Join(dead, "\n  "))
	}

	for key, reason := range deadExportAllowlist {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s carries no reason", key)
		}
		if !c.declaredKeys[key] {
			t.Errorf("allowlist entry %s names no declared identifier", key)
		}
	}
	for _, obj := range c.declared {
		key := objectKey(obj)
		if _, listed := deadExportAllowlist[key]; listed && strings.HasPrefix(key, prefix) && c.reached(obj) {
			t.Errorf("allowlist entry %s is stale: its scope's rule now reaches it", key)
		}
	}
}

// reach records where the uses of an object come from.
type reach uint8

const (
	reachBody    reach = 1 << iota // a function body of the public package
	reachDecl                      // the public package, outside function bodies
	reachOutside                   // any other package
)

// reached applies the rule of obj's scope to its recorded uses.
func (c *deadExportChecker) reached(obj types.Object) bool {
	r := c.used[obj]
	if obj.Pkg().Path() != rootPath {
		return r != 0
	}
	switch o := obj.(type) {
	case *types.TypeName:
		return r&(reachOutside|reachDecl) != 0
	case *types.Const:
		if r&reachOutside != 0 {
			return true
		}
		scope := o.Pkg().Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() &&
				types.Identical(tn.Type(), o.Type()) && c.reached(tn) {
				return true
			}
		}
		return false
	}
	return r&reachOutside != 0
}

// deadExportChecker type-checks the module's non-test packages from source,
// recording every object they use, from where, and every export declared
// in the public package or under internal/.
type deadExportChecker struct {
	fset         *token.FileSet
	std          types.Importer
	dirs         map[string]string // import path → directory
	pkgs         map[string]*types.Package
	used         map[types.Object]reach
	declared     []types.Object
	declaredKeys map[string]bool
	// bodyIfaces are the interface types of the repo's expressions,
	// including anonymous ones written inside function bodies, such as the
	// x.(interface{ M() }) assertions package scopes do not show.
	bodyIfaces []types.Type
}

func newDeadExportChecker() *deadExportChecker {
	return &deadExportChecker{
		fset:         token.NewFileSet(),
		std:          importer.Default(),
		dirs:         map[string]string{},
		pkgs:         map[string]*types.Package{},
		used:         map[types.Object]reach{},
		declaredKeys: map[string]bool{},
	}
}

// loadRepo type-checks every package directory of the repo. The module
// path is "mcmdist" and the benchmark module's is "mcmdist/benchmark", so
// each package's import path is "mcmdist/" plus its path from the repo root.
func (c *deadExportChecker) loadRepo() error {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ip := "mcmdist"
		if p != "." {
			ip += "/" + filepath.ToSlash(p)
		}
		c.dirs[ip] = p
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return err
	}
	for _, ip := range paths {
		if _, err := c.Import(ip); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
	}
	return nil
}

// Import implements types.Importer: packages of the repo are checked from
// their non-test sources, everything else comes from the toolchain.
func (c *deadExportChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := c.dirs[path]
	if !ok {
		return c.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg
	site := func(token.Pos) reach { return reachOutside }
	if path == rootPath {
		bodies := functionBodies(files)
		site = func(pos token.Pos) reach {
			for _, b := range bodies {
				if b.Pos() <= pos && pos < b.End() {
					return reachBody
				}
			}
			return reachDecl
		}
	}
	for id, obj := range info.Uses {
		c.use(obj, site(id.Pos()))
	}
	for sel, s := range info.Selections {
		c.use(s.Obj(), site(sel.Sel.Pos()))
	}
	for _, tv := range info.Types {
		if tv.Type != nil {
			if _, ok := tv.Type.Underlying().(*types.Interface); ok {
				c.bodyIfaces = append(c.bodyIfaces, tv.Type)
			}
		}
	}
	switch {
	case path == rootPath:
		c.declare(pkg, false)
	case strings.HasPrefix(path, rootPath+"/internal/"):
		c.declare(pkg, true)
	}
	return pkg, nil
}

// functionBodies returns the bodies of the files' functions and function
// literals, and the receivers of their methods: a method naming its own
// type reaches no caller either.
func functionBodies(files []*ast.File) []ast.Node {
	var bodies []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Recv != nil {
					bodies = append(bodies, fn.Recv)
				}
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
	}
	return bodies
}

// use records a use of obj, and of the generic declaration it instantiates,
// from site.
func (c *deadExportChecker) use(obj types.Object, site reach) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	c.used[obj] |= site
}

// declare records pkg's exported package-level objects, and the exported
// methods — and, with fields, struct fields — of its exported named types.
func (c *deadExportChecker) declare(pkg *types.Package, fields bool) {
	add := func(obj types.Object) {
		c.declared = append(c.declared, obj)
		c.declaredKeys[objectKey(obj)] = true
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		add(obj)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				add(m)
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok && fields {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					add(f)
				}
			}
		}
	}
}

// interfaceMethodNames collects the method names of every interface the
// checked packages, or the standard-library packages they import, declare
// — named or anonymous. A method with one of these names may be reached by
// dynamic dispatch, which leaves no use of the concrete method to find.
func (c *deadExportChecker) interfaceMethodNames() map[string]bool {
	// The predeclared error interface, and the Unwrap that errors.Is, As
	// and Unwrap assert inside function bodies, which export data omits.
	names := map[string]bool{"Error": true, "Unwrap": true}
	seenPkg := map[*types.Package]bool{}
	seenType := map[types.Type]bool{}
	var walkType func(types.Type)
	walkType = func(t types.Type) {
		if t == nil || seenType[t] {
			return
		}
		seenType[t] = true
		switch u := t.(type) {
		case *types.Named:
			walkType(u.Underlying())
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				names[u.Method(i).Name()] = true
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				walkType(u.Field(i).Type())
			}
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walkType(tup.At(i).Type())
				}
			}
		case *types.Pointer:
			walkType(u.Elem())
		case *types.Slice:
			walkType(u.Elem())
		case *types.Array:
			walkType(u.Elem())
		case *types.Map:
			walkType(u.Key())
			walkType(u.Elem())
		case *types.Chan:
			walkType(u.Elem())
		}
	}
	var walkPkg func(*types.Package)
	walkPkg = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			walkType(scope.Lookup(name).Type())
		}
		for _, imp := range p.Imports() {
			walkPkg(imp)
		}
	}
	for _, p := range c.pkgs {
		walkPkg(p)
	}
	for _, t := range c.bodyIfaces {
		walkType(t)
	}
	return names
}

// objectKey names obj as "<import path>.<Name>", with the receiver or
// struct type between them for a method or field.
func objectKey(obj types.Object) string {
	pkg := obj.Pkg().Path()
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			return pkg + "." + typeName(recv.Type()) + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return pkg + "." + fieldOwner(o) + "." + o.Name()
		}
	}
	return pkg + "." + obj.Name()
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// fieldOwner finds the named struct type of its package that declares f.
func fieldOwner(f *types.Var) string {
	scope := f.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == f {
					return name
				}
			}
		}
	}
	return "?"
}
