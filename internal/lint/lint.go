package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Mirrors analysis.Analyzer.
type Analyzer struct {
	// Name is the short identifier used in diagnostics, -only flags, and
	// //lint:gaea-allow comments.
	Name string
	// Doc is the one-paragraph rationale shown by `gaea-vet -list`.
	Doc string
	// Run inspects one package and reports diagnostics via pass.Report.
	Run func(pass *Pass) error
	// RunModule, set instead of Run, inspects every package of the
	// module at once: it runs once per driver run, sees the packages the
	// patterns did not name as well, and reports only in those they did.
	RunModule func(pass *ModulePass) error
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg      *Package
	driver   *Driver
	suppress func(pos token.Position, analyzer string) bool
	out      *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an adjacent
// //lint:gaea-allow comment suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress != nil && p.suppress(position, p.Analyzer.Name) {
		return
	}
	*p.out = append(*p.out, Diagnostic{p.Analyzer.Name, position, fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj for downstream packages analyzed
// by the same analyzer in the same driver run. Facts flow in dependency
// order: a package's imports are always analyzed first.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	if obj == nil || fact == nil {
		return
	}
	p.driver.facts[factKey{p.Analyzer, obj}] = fact
}

// ImportObjectFact copies the fact previously exported for obj into the
// pointer target, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, target any) bool {
	if obj == nil {
		return false
	}
	f, ok := p.driver.facts[factKey{p.Analyzer, obj}]
	if !ok {
		return false
	}
	tv := reflect.ValueOf(target)
	if tv.Kind() != reflect.Pointer {
		return false
	}
	fv := reflect.ValueOf(f)
	// Facts are conventionally exported as pointers (as in x/tools);
	// unwrap to copy the value into the caller's target.
	if fv.Kind() == reflect.Pointer && fv.Type().Elem().AssignableTo(tv.Elem().Type()) {
		tv.Elem().Set(fv.Elem())
		return true
	}
	if fv.Type().AssignableTo(tv.Elem().Type()) {
		tv.Elem().Set(fv)
		return true
	}
	return false
}

// ModulePass carries a whole-module analyzer's view of every package.
type ModulePass struct {
	Analyzer *Analyzer
	// Packages is every package of the module, dependencies first.
	Packages []*Package

	out *[]Diagnostic
}

// Reportf records a diagnostic at pos in pkg, unless pkg is not one the
// patterns named or an adjacent //lint:gaea-allow comment suppresses it.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	if !pkg.Target || pkg.Allowed(position, p.Analyzer.Name) {
		return
	}
	*p.out = append(*p.out, Diagnostic{p.Analyzer.Name, position, fmt.Sprintf(format, args...)})
}

type factKey struct {
	analyzer *Analyzer
	obj      types.Object
}

// Driver runs analyzers over loaded packages in dependency order,
// carrying facts across package boundaries.
type Driver struct {
	facts map[factKey]any
}

// NewDriver builds an empty driver.
func NewDriver() *Driver { return &Driver{facts: make(map[factKey]any)} }

// Run applies every analyzer to every target package (packages must
// already be in dependency order, as Load returns them), and every
// whole-module analyzer once to them all, and returns the surviving
// diagnostics sorted by position.
func (d *Driver) Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if err := a.RunModule(&ModulePass{Analyzer: a, Packages: pkgs, out: &out}); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				pkg:       pkg,
				driver:    d,
				suppress:  pkg.Allowed,
				out:       &out,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// Vet loads the packages matching patterns (dir anchors the go tool)
// and runs the analyzers over them: the one-call form used by
// cmd/gaea-vet and the self-test.
func Vet(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return NewDriver().Run(pkgs, analyzers)
}

// ---------------------------------------------------------------------
// Shared type/AST helpers used by several analyzers.

// FuncObj resolves the called function/method object of a call
// expression, or nil.
func FuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.F(...).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsPkgFunc reports whether f is the named function of the package whose
// import path ends in pathSuffix (exact path, or "/"+suffix: fixtures
// mirror real packages under short testdata paths).
func IsPkgFunc(f *types.Func, pathSuffix, name string) bool {
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	return pathMatches(f.Pkg().Path(), pathSuffix)
}

func pathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// PathMatches reports whether an import path is suffix, or ends in
// "/"+suffix — so fixture packages vendored under testdata match the
// same rules as the real module.
func PathMatches(path, suffix string) bool { return pathMatches(path, suffix) }

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
