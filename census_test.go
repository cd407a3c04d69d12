package dod

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestTestOnlyCensus keeps code that only tests reach out of the build. It
// type-checks every non-test package of this module and of bench/ with
// go/types and flags, under internal/:
//
//   - an exported func, type, const or var, or an exported method or struct
//     field of an exported type, that no non-test file uses outside its own
//     declaration. A use is any identifier go/types resolves to it, struct
//     literal keys included. A method that satisfies an interface is
//     skipped: a call through the interface does not name it.
//   - an exported field of a struct type named *Config, *Options or *Params
//     that no non-test code outside the declaring package sets (assigns,
//     increments, takes the address of, or writes in a composite literal):
//     a knob only its own package or its tests turn.
//
// Each finding is keyed "pkg.Name" or "pkg.Type.Member", with pkg the path
// below internal/, and must be listed, with the role that keeps it, in
// testdata/testonly.allow. The test fails on a finding that is not listed,
// and on a listed one that is no longer a finding, so entries only leave.
func TestTestOnlyCensus(t *testing.T) {
	findings, err := censusFindings(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowList(filepath.Join("testdata", "testonly.allow"))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range findings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := allowed[k]; !ok {
			t.Errorf("%s: %s; delete it, move it into its consumer's _test.go, or list it in testdata/testonly.allow with the role that keeps it", k, findings[k])
		}
		delete(allowed, k)
	}
	var stale []string
	for k := range allowed {
		stale = append(stale, k)
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("%s: listed in testdata/testonly.allow but no longer a finding (deleted, or used or set now); remove the entry", k)
	}
}

// TestOneFrontEnd keeps the NDJSON front end in one place: no package but
// internal/httpapi registers /v1/ingest or /v1/score on a mux, or declares
// its own DefaultMaxBatch or DefaultMaxBodyBytes.
func TestOneFrontEnd(t *testing.T) {
	const front = "dod/internal/httpapi"
	fset, files, _, err := parseModule(".")
	if err != nil {
		t.Fatal(err)
	}
	registered := 0
	for _, pf := range files {
		for _, d := range pf.file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || pf.importPath == front {
				continue
			}
			for _, s := range gd.Specs {
				if vs, ok := s.(*ast.ValueSpec); ok {
					for _, n := range vs.Names {
						if n.Name == "DefaultMaxBatch" || n.Name == "DefaultMaxBodyBytes" {
							t.Errorf("%s declares %s; the front end's caps are internal/httpapi's", fset.Position(n.Pos()), n.Name)
						}
					}
				}
			}
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle") {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if path, _ := strconv.Unquote(lit.Value); path == "/v1/ingest" || path == "/v1/score" {
				if pf.importPath == front {
					registered++
				} else {
					t.Errorf("%s registers %s; the NDJSON front end is internal/httpapi's", fset.Position(lit.Pos()), path)
				}
			}
			return true
		})
	}
	if registered != 2 {
		t.Errorf("internal/httpapi registers %d of /v1/ingest and /v1/score, want both", registered)
	}
}

// TestOneSupportingAreaJob keeps the supporting-area job in internal/core:
// no package of this module but the planner, the sampler and core builds a
// sample.Histogram, which is what planning a job of one's own takes. bench/
// is its own module and times the planner's stages one by one.
func TestOneSupportingAreaJob(t *testing.T) {
	const sample = "dod/internal/sample"
	fset, files, _, err := parseModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range files {
		switch {
		case pf.importPath == "dod/internal/plan", pf.importPath == sample, pf.importPath == "dod/internal/core",
			strings.HasPrefix(pf.importPath, "dod/bench"):
			continue
		}
		local := ""
		for _, is := range pf.file.Imports {
			if strings.Trim(is.Path.Value, `"`) == sample {
				local = "sample"
				if is.Name != nil {
					local = is.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Histogram" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						t.Errorf("%s builds a sample.Histogram; plan a supporting-area job with core.NewAreaJob", fset.Position(lit.Pos()))
					}
				}
			}
			return true
		})
	}
}

// parsedFile is one non-test Go file and the import path of its package.
type parsedFile struct {
	file       *ast.File
	importPath string
}

// parseModule parses every non-test Go file under root (skipping testdata
// and dot directories), naming packages by import path in module dod
// (bench/ is module dod/bench, so one rule names every package). It also
// returns each package's name by import path.
func parseModule(root string) (*token.FileSet, []parsedFile, map[string]string, error) {
	const module = "dod"
	fset := token.NewFileSet()
	var files []parsedFile
	pkgNames := map[string]string{} // import path → package name
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(rel))
		pkgNames[ip] = f.Name.Name
		files = append(files, parsedFile{f, ip})
		return nil
	})
	return fset, files, pkgNames, err
}

// censusPkg is one type-checked non-test package.
type censusPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// censusCheck type-checks every non-test package under root (module dod and
// bench/'s dod/bench). Packages of ours are checked from source in import
// order; the standard library comes from importer.Default's export data.
func censusCheck(root string) (*token.FileSet, []*censusPkg, error) {
	fset, files, _, err := parseModule(root)
	if err != nil {
		return nil, nil, err
	}
	byPath := map[string][]*ast.File{}
	for _, pf := range files {
		byPath[pf.importPath] = append(byPath[pf.importPath], pf.file)
	}
	std := importer.Default()
	checked := map[string]*types.Package{}
	var pkgs []*censusPkg
	var check func(path string) (*types.Package, error)
	check = func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			if tp == nil {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			return tp, nil
		}
		fs, ok := byPath[path]
		if !ok {
			return std.Import(path)
		}
		checked[path] = nil
		p := &censusPkg{path: path, files: fs, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		conf := types.Config{Importer: importerFunc(check)}
		tp, err := conf.Check(path, fset, fs, p.info)
		if err != nil {
			return nil, err
		}
		checked[path] = tp
		p.pkg = tp
		pkgs = append(pkgs, p)
		return tp, nil
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			return nil, nil, err
		}
	}
	return fset, pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// censusFindings returns the census's findings under root, keyed as
// TestTestOnlyCensus describes, each with what is wrong with it.
func censusFindings(root string) (map[string]string, error) {
	const internalPrefix = "dod/internal/"
	_, pkgs, err := censusCheck(root)
	if err != nil {
		return nil, err
	}

	// Every use of every object, and every field set outside its package.
	uses := map[types.Object][]token.Pos{}
	setOutside := map[types.Object]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			obj = censusOrigin(obj)
			uses[obj] = append(uses[obj], id.Pos())
		}
		for _, f := range p.files {
			censusSets(p, f, func(field types.Object) {
				if field.Pkg() != nil && field.Pkg().Path() != p.path {
					setOutside[censusOrigin(field)] = true
				}
			})
		}
	}
	ifaces, err := censusInterfaces(pkgs)
	if err != nil {
		return nil, err
	}

	findings := map[string]string{}
	unused := func(key string, obj types.Object, start, end token.Pos) {
		for _, pos := range uses[obj] {
			if pos < start || pos >= end {
				return
			}
		}
		findings[key] = "exported, but no non-test file uses it"
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, internalPrefix) {
			continue
		}
		pkg := strings.TrimPrefix(p.path, internalPrefix)
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					obj := p.info.Defs[d.Name]
					if d.Recv == nil {
						unused(pkg+"."+d.Name.Name, obj, d.Pos(), d.End())
						continue
					}
					recv := censusNamed(obj.(*types.Func).Type().(*types.Signature).Recv().Type())
					if recv == nil || !recv.Obj().Exported() || censusSatisfies(recv, d.Name.Name, ifaces) {
						continue
					}
					unused(pkg+"."+recv.Obj().Name()+"."+d.Name.Name, obj, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							unused(pkg+"."+s.Name.Name, p.info.Defs[s.Name], s.Pos(), s.End())
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							knob := strings.HasSuffix(s.Name.Name, "Config") || strings.HasSuffix(s.Name.Name, "Options") ||
								strings.HasSuffix(s.Name.Name, "Params")
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									if !n.IsExported() {
										continue
									}
									key := pkg + "." + s.Name.Name + "." + n.Name
									obj := p.info.Defs[n]
									unused(key, obj, fld.Pos(), fld.End())
									if _, found := findings[key]; !found && knob && !setOutside[obj] {
										findings[key] = "a knob no non-test code outside its package sets"
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									unused(pkg+"."+n.Name, p.info.Defs[n], s.Pos(), s.End())
								}
							}
						}
					}
				}
			}
		}
	}
	return findings, nil
}

// censusOrigin maps an instantiated generic member to its declaration.
func censusOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// censusNamed returns the named type t or *t is, or nil.
func censusNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// censusSets calls set for every struct field the file writes: the
// selectors on the left of an assignment or increment, under an address-of,
// and the fields a composite literal fills.
func censusSets(p *censusPkg, f *ast.File, set func(types.Object)) {
	var lhs func(e ast.Expr)
	lhs = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel, ok := p.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
					set(sel.Obj())
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						lhs(e)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lhs(n.X)
			}
		case *ast.CompositeLit:
			st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil {
							set(obj)
						}
					}
				} else if i < st.NumFields() {
					set(st.Field(i))
				}
			}
		}
		return true
	})
}

// censusProtocols are interfaces the standard library asserts inline, so
// no export data carries them: errors.Is, errors.As and errors.Unwrap's.
const censusProtocols = `package protocols
type is interface{ Is(error) bool }
type as interface{ As(any) bool }
type unwrap interface{ Unwrap() error }
type unwrapAll interface{ Unwrap() []error }
`

// censusInterfaces returns every interface with methods that the checked
// packages and the packages they import declare or spell out, plus error
// and censusProtocols.
func censusInterfaces(pkgs []*censusPkg) ([]*types.Interface, error) {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "protocols.go", censusProtocols, 0)
	if err != nil {
		return nil, err
	}
	protocols, err := new(types.Config).Check("protocols", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	walk(protocols)
	for _, p := range pkgs {
		walk(p.pkg)
		for e, tv := range p.info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}
	return out, nil
}

// censusSatisfies reports whether the method name of named is a method of
// some interface that named or *named implements.
func censusSatisfies(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// readAllowList reads "pkg.Name  reason" lines; blank lines and lines
// starting with '#' are skipped. Every entry needs a reason.
func readAllowList(file string) (map[string]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name := strings.Fields(text)[0]
		reason := strings.TrimSpace(text[len(name):])
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, line, name)
		}
		if _, dup := allowed[name]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", file, line, name)
		}
		allowed[name] = reason
	}
	return allowed, sc.Err()
}
