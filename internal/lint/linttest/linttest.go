// Package linttest runs lint analyzers over GOPATH-style fixture trees,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture code
// lives under <testdata>/src/<importpath>/, and expected diagnostics are
// declared inline with trailing comments of the form
//
//	code() // want "regexp" "second regexp"
//
// Every diagnostic must match a want clause on its line and every want
// clause must be matched — extra or missing diagnostics fail the test.
// Fixture packages may import each other (loaded source-first, so facts
// flow) and the standard library (loaded from build-cache export data
// via the go tool).
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gaea/internal/lint"
)

// Run loads the named fixture packages (plus their fixture-local
// dependencies), applies the analyzer, and checks diagnostics against
// the fixtures' want comments.
//
//lint:gaea-allow deadcode test helper: every analyzer's test runs its fixtures through it
func Run(t *testing.T, testdata string, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	diags, fset, files, err := analyze(testdata, a, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, fset, files, diags)
}

func analyze(testdata string, a *lint.Analyzer, roots []string) ([]lint.Diagnostic, *token.FileSet, []*ast.File, error) {
	src := filepath.Join(testdata, "src")

	// Discover the fixture package set: the named roots plus every
	// fixture-local import, transitively.
	type fixture struct {
		path    string
		dir     string
		files   []string
		imports []string
	}
	fixtures := make(map[string]*fixture)
	var scan func(path string) error
	scan = func(path string) error {
		if _, ok := fixtures[path]; ok {
			return nil
		}
		dir := filepath.Join(src, filepath.FromSlash(path))
		ents, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("linttest: fixture package %q: %v", path, err)
		}
		fx := &fixture{path: path, dir: dir}
		fixtures[path] = fx
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			fname := filepath.Join(dir, e.Name())
			fx.files = append(fx.files, fname)
			f, err := parser.ParseFile(token.NewFileSet(), fname, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				fx.imports = append(fx.imports, p)
			}
		}
		for _, imp := range fx.imports {
			if _, err := os.Stat(filepath.Join(src, filepath.FromSlash(imp))); err == nil {
				if err := scan(imp); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, p := range roots {
		if err := scan(p); err != nil {
			return nil, nil, nil, err
		}
	}

	// External (standard library) imports load from export data.
	extSet := make(map[string]bool)
	for _, fx := range fixtures {
		for _, imp := range fx.imports {
			if _, local := fixtures[imp]; !local {
				extSet[imp] = true
			}
		}
	}
	exports, err := stdlibExports(extSet)
	if err != nil {
		return nil, nil, nil, err
	}

	// Topological order: fixture imports first.
	var order []*fixture
	state := make(map[string]int)
	var visit func(fx *fixture) error
	visit = func(fx *fixture) error {
		switch state[fx.path] {
		case 1:
			return fmt.Errorf("linttest: fixture import cycle through %s", fx.path)
		case 2:
			return nil
		}
		state[fx.path] = 1
		for _, imp := range fx.imports {
			if dep, ok := fixtures[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[fx.path] = 2
		order = append(order, fx)
		return nil
	}
	var all []*fixture
	for _, fx := range fixtures {
		all = append(all, fx)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].path < all[j].path })
	for _, fx := range all {
		if err := visit(fx); err != nil {
			return nil, nil, nil, err
		}
	}

	pkgs, err := lint.CheckFixtures(exports, func(yield func(path string, files []string) bool) {
		for _, fx := range order {
			if !yield(fx.path, fx.files) {
				return
			}
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}

	diags, err := lint.NewDriver().Run(pkgs, []*lint.Analyzer{a})
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	var fset *token.FileSet
	for _, p := range pkgs {
		fset = p.Fset
		files = append(files, p.Files...)
	}
	return diags, fset, files, nil
}

// wantRE picks the quoted regexps out of a want comment — either
// interpreted ("...") or raw (`...`) string syntax.
var wantRE = regexp.MustCompile("`[^`]*`" + `|"(?:[^"\\]|\\.)*"`)

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(text[len("want "):], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	matched := make(map[key][]bool)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		res := wants[k]
		if matched[k] == nil {
			matched[k] = make([]bool, len(res))
		}
		found := false
		for i, re := range res {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if matched[k] == nil || !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// stdlibExports resolves export-data files for the external imports and
// their transitive dependencies via the go tool.
func stdlibExports(paths map[string]bool) (map[string]string, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	var list []string
	for p := range paths {
		list = append(list, p)
	}
	sort.Strings(list)
	return lint.ExportData(list)
}
