package wsnq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal functions and methods
// the guard below accepts without a non-test caller outside their own
// file, each with the reason it stays. A key is "dir/file.go:Name" for
// one declaration, or "dir/" for a whole test-support package.
var exportAllowlist = map[string]string{
	"internal/simtest/":      "test-support package: deployments and oracle runs for other packages' tests",
	"internal/trace/oracle/": "test-support package: the invariant oracle the differential tests drive",

	"internal/benchfmt/benchfmt.go:List":             "TestBenchRegressionGuard, the BENCH_*.json trajectory gate, lists the sessions",
	"internal/benchfmt/benchfmt.go:Regressions":      "TestBenchRegressionGuard's ns/op gate",
	"internal/benchfmt/benchfmt.go:AllocRegressions": "TestBenchRegressionGuard's allocs/op gate",
	"internal/energy/energy.go:SendCost":             "the radio model's closed-form cost; sim and telemetry tests check the memoized ledger against it",
	"internal/energy/energy.go:RecvCost":             "the radio model's closed-form cost; sim and telemetry tests check the ledger against it",
	"internal/level/level.go:MarshalText":            "implements encoding.TextMarshaler for JSON",
	"internal/trace/trace.go:MarshalText":            "implements encoding.TextMarshaler for JSON (event kinds and energy ops)",
	"internal/trace/recorder.go:NewRecorder":         "test-support collector: tests in several packages record event streams with it",
	"internal/prof/prof.go:TopAllocPhase":            "the root package's attribution golden tests read it across the package boundary",
}

// allowlisted reports whether an allowlist entry covers the
// declaration name in file.
func allowlisted(file, name string) bool {
	if _, ok := exportAllowlist[file+":"+name]; ok {
		return true
	}
	for key := range exportAllowlist {
		if strings.HasSuffix(key, "/") && strings.HasPrefix(file, key) {
			return true
		}
	}
	return false
}

// TestInternalExportsHaveCallers fails on any exported top-level
// function or method under internal/ that no non-test file outside its
// own file refers to: an export only its tests (or its own file) use
// belongs unexported or in the test. Every non-test Go file of the
// repository counts (cmd, examples, perfbench and the root package
// included). A function is referenced by a qualified pkg.Name selector
// on its package's import, or by a bare Name inside its own package; a
// method, lacking type information, by any same-named identifier, so
// for methods the guard errs on the side of passing.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct {
		file, dir, name string
		method          bool
	}
	var decls []decl
	anyRefs := map[string]map[string]bool{}  // identifier → files naming it
	funcRefs := map[string]map[string]bool{} // "dir.Name" → files calling it
	addRef := func(m map[string]map[string]bool, key, file string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][file] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(path)
		dir := filepath.ToSlash(filepath.Dir(path))
		// Import name → repository directory, for the module's own
		// packages ("wsnq/internal/x" lives in internal/x).
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			rel, ok := strings.CutPrefix(ip, "wsnq/")
			if !ok {
				continue
			}
			name := rel[strings.LastIndex(rel, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		skip := map[*ast.Ident]bool{}
		for _, n := range f.Decls {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				continue
			}
			skip[fd.Name] = true
			if fd.Name.IsExported() && strings.HasPrefix(file, "internal/") {
				decls = append(decls, decl{file, dir, fd.Name.Name, fd.Recv != nil})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok {
						addRef(funcRefs, pkg+"."+n.Sel.Name, file)
					}
				}
				addRef(anyRefs, n.Sel.Name, file)
				skip[n.Sel] = true
			case *ast.Ident:
				if !skip[n] {
					addRef(anyRefs, n.Name, file)
					addRef(funcRefs, dir+"."+n.Name, file)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported internal declarations; is the test running from the repository root?")
	}
	var orphans []string
	declared := map[string]bool{}
	for _, d := range decls {
		key := d.file + ":" + d.name
		declared[key] = true
		refs := funcRefs[d.dir+"."+d.name]
		if d.method {
			refs = anyRefs[d.name]
		}
		used := false
		for file := range refs {
			if file != d.file {
				used = true
				break
			}
		}
		if allowlisted(d.file, d.name) {
			if used && exportAllowlist[key] != "" {
				t.Errorf("%s is allowlisted but has a non-test caller now; drop it from the allowlist", key)
			}
			continue
		}
		if !used {
			orphans = append(orphans, key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is exported but has no non-test caller outside its own file: unexport it, move it into its test, or allowlist it with a reason", o)
	}
	for key := range exportAllowlist {
		if strings.HasSuffix(key, "/") {
			if _, err := os.Stat(key); err != nil {
				t.Errorf("allowlist entry %s names a missing package", key)
			}
		} else if !declared[key] {
			t.Errorf("allowlist entry %s names no exported internal declaration", key)
		}
	}
}
