package patchitpy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of the root module; perfbench/ is a
// nested module that imports the same packages under this path.
const modulePath = "github.com/dessertlab/patchitpy"

// stdlibMethods are method names that standard-library interfaces call
// (fmt.Stringer, error, http.Handler, slog.Handler, json.Marshaler,
// io.Writer, sort.Interface, ...), so a method by that name is reached
// without any selector in this repository naming it.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"ServeHTTP": true,
	"Enabled":   true, "Handle": true, "WithAttrs": true, "WithGroup": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Write": true, "Read": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
}

// testSeams are exported declarations under internal/ that only tests
// call, kept because a test of some other behaviour needs them. Keys are
// "<package dir>.<Func>" or "<package dir>.<Type>.<Method>".
var testSeams = map[string]string{
	"internal/baseline/banditlite.Scanner.Scans":  "counts scans, so TestAnalyzeScansOnce can prove one Analyze call scans once",
	"internal/baseline/querydb.Engine.QueryCount": "exposes the query-suite size TestQueryCount checks",
	"internal/rulecheck.SynthesizeWitness":        "builds the per-rule inputs TestCatalogPatchRoundTrip patches",
	"internal/diag.IsSorted":                      "checks canonical finding order in the detect and rulecheck adapter tests",
	"internal/editor.ApplyEdits":                  "applies TextEdits as the editor would: the reference the core patch-edit and detect incremental tests compare against",
	"internal/editor.SpanEdit":                    "builds byte-span TextEdits for the detect incremental and docsession tests",
	"internal/experiments.RunSequential":          "the independent single-goroutine reference TestParallelMatchesSequential compares the parallel harness against",
}

// TestInternalExportsHaveCallers fails on an exported function or method
// under internal/ that no non-test Go file in the repository calls: code
// only tests reach is dead weight, or belongs in a _test.go file.
//
// Resolution is by name, from the syntax alone. A function counts as
// called when a file importing its package selects it (pkg.Func), or when
// a file of its own package names it. A method counts as called when any
// file selects its name (x.Method), since receiver types are not
// resolved. A reference inside the declaration's own body (recursion)
// does not count. Methods named in stdlibMethods, and methods on the
// types patchitpy.go re-exports (the library's public API), are exempt.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := parseNonTestFiles(t, fset, "internal", "cmd", "examples", "perfbench", "patchitpy.go")
	funcRefs, methodRefs := indexReferences(files)
	reexported := reexportedTypes(files)

	var unused []string
	seams := map[string]bool{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key, refs := f.dir+"."+fn.Name.Name, funcRefs[f.dir+"."+fn.Name.Name]
			if fn.Recv != nil {
				recv := receiverType(fn.Recv.List[0].Type)
				if stdlibMethods[fn.Name.Name] || reexported[f.dir+"."+recv] {
					continue
				}
				key, refs = f.dir+"."+recv+"."+fn.Name.Name, methodRefs[fn.Name.Name]
			}
			called := referencedOutside(refs, fn.Body)
			if _, ok := testSeams[key]; ok {
				seams[key] = true
				if called {
					t.Errorf("%s: testSeams lists %s, but non-test code calls it", fset.Position(fn.Pos()), key)
				}
			} else if !called {
				unused = append(unused, fset.Position(fn.Pos()).String()+": "+key)
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, move it to a _test.go file, or list it in testSeams with a reason", u)
	}
	for k := range testSeams {
		if !seams[k] {
			t.Errorf("testSeams lists %s, which is not an exported declaration under internal/", k)
		}
	}
}

type parsedFile struct {
	dir  string // slash-separated directory relative to the repository root
	file *ast.File
}

// parseNonTestFiles parses every non-test .go file under roots, skipping
// testdata and the benchmark's build directory.
func parseNonTestFiles(t *testing.T, fset *token.FileSet, roots ...string) []parsedFile {
	t.Helper()
	var files []parsedFile
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == ".bench_build" || d.Name() == "testdata" {
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
			files = append(files, parsedFile{dir: filepath.ToSlash(filepath.Dir(p)), file: f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// indexReferences returns the positions of every reference to a
// package-level name, keyed "<dir>.<Name>", and of every selector that
// is not a package qualifier, keyed by the selected name.
func indexReferences(files []parsedFile) (funcRefs, methodRefs map[string][]token.Pos) {
	funcRefs, methodRefs = map[string][]token.Pos{}, map[string][]token.Pos{}
	for _, f := range files {
		imports := importedDirs(f.file)
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					k := imports[id.Name] + "." + n.Sel.Name
					funcRefs[k] = append(funcRefs[k], n.Pos())
					return false
				}
				methodRefs[n.Sel.Name] = append(methodRefs[n.Sel.Name], n.Pos())
				ast.Inspect(n.X, visit)
				return false
			case *ast.FuncDecl:
				// The declared name is not a reference.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.Ident:
				k := f.dir + "." + n.Name
				funcRefs[k] = append(funcRefs[k], n.Pos())
			}
			return true
		}
		for _, d := range f.file.Decls {
			ast.Inspect(d, visit)
		}
	}
	return funcRefs, methodRefs
}

// importedDirs maps each name a file uses for a repository package to
// that package's directory relative to the repository root.
func importedDirs(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !strings.HasPrefix(p, modulePath+"/") {
			continue
		}
		dir := strings.TrimPrefix(p, modulePath+"/")
		name := path.Base(dir)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = dir
	}
	return out
}

// reexportedTypes returns "<dir>.<Type>" for every type alias
// patchitpy.go declares: methods on those types are public API.
func reexportedTypes(files []parsedFile) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
		if f.dir != "." {
			continue
		}
		imports := importedDirs(f.file)
		ast.Inspect(f.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Assign.IsValid() {
				return true
			}
			if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
					out[imports[id.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return out
}

// receiverType returns the base type name of a method receiver.
func receiverType(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// referencedOutside reports whether any reference lies outside body, the
// declaration's own body.
func referencedOutside(refs []token.Pos, body *ast.BlockStmt) bool {
	for _, p := range refs {
		if body == nil || p < body.Pos() || p >= body.End() {
			return true
		}
	}
	return false
}
