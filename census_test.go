package dod

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestTestOnlyCensus keeps code that only tests reach out of the build.
// Every exported top-level func, type, var and const declared under
// internal/ must be referred to by some non-test Go file of this module or
// of bench/, outside its own declaration — or be listed, with the role that
// keeps it, in testdata/testonly.allow. A use is a pkg.Name selector through
// an import of the declaring package, or a bare identifier inside it; field
// and method selectors, struct literal keys and method names are not.
// Methods are out of scope: whether one is used depends on interface
// satisfaction, which a parser cannot see.
//
// The test fails on a flagged identifier that is not listed, and on a listed
// one that is no longer flagged or no longer exists, so entries only leave.
func TestTestOnlyCensus(t *testing.T) {
	decls, uses, err := censusScan(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowList(filepath.Join("testdata", "testonly.allow"))
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for name, d := range decls {
		used := false
		for _, p := range uses[name] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			flagged = append(flagged, name)
		}
	}
	sort.Strings(flagged)
	for _, name := range flagged {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s: exported, but no non-test file uses it; move it into its consumer's _test.go, delete it, or list it in testdata/testonly.allow with the role that keeps it", name)
		}
		delete(allowed, name)
	}
	var stale []string
	for name := range allowed {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		if _, ok := decls[name]; !ok {
			t.Errorf("%s: listed in testdata/testonly.allow but no longer declared; remove the entry", name)
		} else {
			t.Errorf("%s: listed in testdata/testonly.allow but non-test code uses it now; remove the entry", name)
		}
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

// censusDecl is the source span of one exported declaration.
type censusDecl struct{ start, end token.Pos }

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

// censusScan returns the exported top-level declarations under internal/
// of the non-test files under root, keyed "pkg.Name" with pkg the path
// below internal/, and every position at which a non-test file uses each
// such key.
func censusScan(root string) (map[string]censusDecl, map[string][]token.Pos, error) {
	const internalPrefix = "dod/internal/"
	_, files, pkgNames, err := parseModule(root)
	if err != nil {
		return nil, nil, err
	}

	key := func(importPath, name string) string {
		return strings.TrimPrefix(importPath, internalPrefix) + "." + name
	}
	decls := map[string]censusDecl{}
	for _, pf := range files {
		if !strings.HasPrefix(pf.importPath, internalPrefix) {
			continue
		}
		for _, d := range pf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[key(pf.importPath, d.Name.Name)] = censusDecl{d.Pos(), d.End()}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[key(pf.importPath, s.Name.Name)] = censusDecl{s.Pos(), s.End()}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[key(pf.importPath, n.Name)] = censusDecl{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	uses := map[string][]token.Pos{}
	for _, pf := range files {
		imports := map[string]string{} // local name → import path
		for _, is := range pf.file.Imports {
			ip := strings.Trim(is.Path.Value, `"`)
			name, ok := pkgNames[ip]
			if !ok {
				continue // not one of ours
			}
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = ip
		}
		notUses := map[*ast.Ident]bool{}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				notUses[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						k := key(ip, n.Sel.Name)
						uses[k] = append(uses[k], n.Sel.Pos())
					}
				}
			case *ast.CompositeLit:
				if _, isMap := n.Type.(*ast.MapType); !isMap {
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								notUses[id] = true
							}
						}
					}
				}
			case *ast.FuncDecl:
				notUses[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					notUses[id] = true
				}
			case *ast.TypeSpec:
				notUses[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					notUses[id] = true
				}
			case *ast.Ident:
				if !notUses[n] && n.IsExported() {
					k := key(pf.importPath, n.Name)
					uses[k] = append(uses[k], n.Pos())
				}
			}
			return true
		})
	}
	return decls, uses, nil
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
