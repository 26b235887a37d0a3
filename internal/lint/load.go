package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Module is the path of the module the package belongs to.
	Module string
	// Target reports whether the patterns named the package: analyzers
	// report only in targets, while whole-module analyzers reason over
	// the rest of the module too.
	Target bool

	// allow holds the //lint:gaea-allow suppressions: file → line →
	// analyzer names allowed on that line and the next.
	allow map[string]map[int][]string
}

// Allowed reports whether a diagnostic by analyzer at pos is suppressed
// by a //lint:gaea-allow comment on the same line or the line above.
func (p *Package) Allowed(pos token.Position, analyzer string) bool {
	lines := p.allow[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		for _, name := range lines[l] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// Load lists patterns with the go tool (building export data for every
// dependency), then parses and type-checks every package of the module
// they lie in from source in dependency order, so analyzers see one
// consistent set of types.Object identities across the whole module.
// dir anchors the go invocation (any directory inside the module).
//
// It returns every package of the module, imports ahead of their
// importers; Target marks the ones matching the patterns. The rest are
// there for their types, and so whole-module analyzers see the entire
// module whatever the patterns.
func Load(dir string, patterns ...string) ([]*Package, error) {
	named, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool, len(named))
	var modPath string
	for _, m := range named {
		targets[m.ImportPath] = true
		if !m.Standard && m.Module != nil && modPath == "" {
			modPath = m.Module.Path
		}
	}
	args := append([]string{"-export", "-deps"}, patterns...)
	if modPath != "" {
		args = append(args, modPath+"/...")
	}
	metas, err := goList(dir, args)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*listPkg, len(metas))
	for _, m := range metas {
		byPath[m.ImportPath] = m
	}
	inModule := func(m *listPkg) bool {
		return !m.Standard && m.Module != nil && m.Module.Path == modPath
	}

	// Topological order over in-module packages (imports first).
	var order []*listPkg
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(m *listPkg) error
	visit = func(m *listPkg) error {
		switch state[m.ImportPath] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", m.ImportPath)
		case 2:
			return nil
		}
		state[m.ImportPath] = 1
		for _, imp := range m.Imports {
			if dep, ok := byPath[imp]; ok && inModule(dep) {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[m.ImportPath] = 2
		order = append(order, m)
		return nil
	}
	// Deterministic order regardless of go list output order.
	var modPkgs []*listPkg
	for _, m := range metas {
		if inModule(m) {
			modPkgs = append(modPkgs, m)
		}
	}
	sort.Slice(modPkgs, func(i, j int) bool { return modPkgs[i].ImportPath < modPkgs[j].ImportPath })
	for _, m := range modPkgs {
		if err := visit(m); err != nil {
			return nil, err
		}
	}

	fset := token.NewFileSet()
	tc := newTypechecker(fset, func(path string) (string, error) {
		m, ok := byPath[path]
		if !ok || m.Export == "" {
			return "", fmt.Errorf("lint: no export data for %q", path)
		}
		return m.Export, nil
	})

	out := make([]*Package, 0, len(order))
	for _, m := range order {
		files := make([]string, len(m.GoFiles))
		for i, f := range m.GoFiles {
			files[i] = filepath.Join(m.Dir, f)
		}
		pkg, err := tc.check(m.ImportPath, m.Name, m.Dir, files)
		if err != nil {
			return nil, err
		}
		pkg.Module = modPath
		pkg.Target = targets[m.ImportPath]
		out = append(out, pkg)
	}
	return out, nil
}

// goList runs `go list -json` with the given extra args and decodes the
// package stream.
func goList(dir string, args []string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var metas []*listPkg
	dec := json.NewDecoder(outPipe)
	for {
		m := new(listPkg)
		if err := dec.Decode(m); err != nil {
			if err == io.EOF {
				break
			}
			_ = cmd.Wait()
			return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
		}
		metas = append(metas, m)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	return metas, nil
}

// typechecker chains a source-checked package map in front of the gc
// export-data importer, so in-module packages resolve to their
// source-checked types while the standard library loads from the build
// cache.
type typechecker struct {
	fset   *token.FileSet
	source map[string]*types.Package
	gc     types.Importer
}

func newTypechecker(fset *token.FileSet, exportFile func(path string) (string, error)) *typechecker {
	tc := &typechecker{fset: fset, source: make(map[string]*types.Package)}
	tc.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	return tc
}

func (tc *typechecker) Import(path string) (*types.Package, error) {
	if pkg, ok := tc.source[path]; ok {
		return pkg, nil
	}
	return tc.gc.Import(path)
}

// check parses and type-checks one package from source and records it
// for importers that follow.
func (tc *typechecker) check(path, name, dir string, files []string) (*Package, error) {
	pkg := &Package{
		Path:  path,
		Name:  name,
		Dir:   dir,
		Fset:  tc.fset,
		allow: make(map[string]map[int][]string),
	}
	for _, fname := range files {
		f, err := parser.ParseFile(tc.fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.indexAllows(f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: tc}
	tpkg, err := conf.Check(path, tc.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	pkg.Name = tpkg.Name()
	tc.source[path] = tpkg
	return pkg, nil
}

// allowDirective is the escape hatch marker: a comment of the form
//
//	//lint:gaea-allow <analyzer>[,<analyzer>...] [reason...]
//
// on the flagged line, or on the line directly above it, suppresses
// those analyzers' diagnostics. Use "all" to suppress every analyzer.
// The reason is free text; leaving one is the convention.
const allowDirective = "lint:gaea-allow"

// indexAllows records every //lint:gaea-allow comment in f.
func (p *Package) indexAllows(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, allowDirective) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, allowDirective))
			if len(fields) == 0 {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			lines := p.allow[pos.Filename]
			if lines == nil {
				lines = make(map[int][]string)
				p.allow[pos.Filename] = lines
			}
			lines[pos.Line] = append(lines[pos.Line], strings.Split(fields[0], ",")...)
		}
	}
}
