// Package deadcode reports the functions and methods of the module that
// no entry point reaches. Code nothing calls still has to be read,
// reviewed and kept compiling, and it hides which paths the system
// really runs; a second engine beside the one in use is the costly case.
//
// The check reasons over the whole module whatever the patterns, so a
// narrower pattern cannot make live code look dead. Its roots are:
//
//   - main of every package main under cmd/, examples/ and bench/, and
//     every init;
//   - the exported functions, and the exported methods of exported
//     types, of the module's root package and of client;
//   - the initialiser of a package-level variable named _, or one that
//     calls a function: it runs at init for its side effects;
//   - every function carrying a //lint:gaea-allow deadcode comment.
//
// Any other package-level variable's declaration is walked only once a
// reached body reads the variable, so a lookup table nothing reads does
// not keep alive what it names.
//
// A reached function makes live every function and method its body
// (closures included) calls or refers to, and every type it mentions
// reached. A method of a reached type is live when the type satisfies
// an interface the module declares or converts to and the method is in
// it, or when the standard library finds it by name (String, Error,
// MarshalJSON, ...). Nothing else makes a method live: in particular an
// exported field of an API type (Kernel.Tasks) does not make its
// type's methods roots, or the kernel's managers would keep the whole
// tree alive. Test files are neither roots nor reported, and neither is
// bench/: the repository benchmark is built from each commit's own
// checkout to compare it with its parent, so its files change only
// with the benchmark itself.
package deadcode

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gaea/internal/lint"
)

const analyzerName = "deadcode"

// Analyzer is the deadcode checker.
var Analyzer = &lint.Analyzer{
	Name: analyzerName,
	Doc: "every function is reachable from a command, example, the repository " +
		"benchmark or the root/client API, or allowed with a reason",
	RunModule: run,
}

func run(pass *lint.ModulePass) error {
	r := newReach(pass.Packages)
	r.solve()
	for fn, d := range r.decls {
		if !r.live[fn] && !under(d.pkg, "/bench") {
			pass.Reportf(d.pkg, d.decl.Pos(), "%s is reached by no entry point: delete it, or keep it with //lint:gaea-allow deadcode <reason>", name(fn))
		}
	}
	return nil
}

// name renders fn as pkg.F or pkg.T.M.
func name(fn *types.Func) string {
	if recv := recvNamed(fn); recv != nil {
		return fn.Pkg().Name() + "." + recv.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// recvNamed is the named type of fn's receiver, or nil for a function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// under reports whether pkg is the module's package dir or lies below
// it.
func under(pkg *lint.Package, dir string) bool {
	rel := strings.TrimPrefix(pkg.Path, pkg.Module)
	return rel == dir || strings.HasPrefix(rel, dir+"/")
}

// dynamicMethods are the methods the standard library looks up on a
// value of any type (fmt, errors, encoding/json and friends), so no
// interface conversion in the module shows them.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
}

// funcDecl is where a function is declared.
type funcDecl struct {
	pkg  *lint.Package
	decl *ast.FuncDecl
}

// pendingVar is where a package-level variable is declared.
type pendingVar struct {
	pkg  *lint.Package
	spec *ast.ValueSpec
}

type reach struct {
	inMod map[*types.Package]bool
	// decls holds every function declared outside test files.
	decls map[*types.Func]funcDecl

	live  map[*types.Func]bool
	queue []*types.Func

	// vars holds the declarations of the package-level variables not
	// walked yet, each walked once a reached body reads its variable.
	vars map[*types.Var]pendingVar

	seenTypes map[types.Type]bool
	newTypes  []*types.Named

	// ifaces is every interface with methods that the module declares
	// or converts to, found anywhere in its code.
	ifaces []*types.Interface
}

func newReach(pkgs []*lint.Package) *reach {
	r := &reach{
		inMod:     make(map[*types.Package]bool),
		decls:     make(map[*types.Func]funcDecl),
		live:      make(map[*types.Func]bool),
		vars:      make(map[*types.Var]pendingVar),
		seenTypes: make(map[types.Type]bool),
	}
	for _, pkg := range pkgs {
		r.inMod[pkg.Types] = true
	}
	seenIface := make(map[types.Type]bool)
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			r.collectIfaces(tv.Type, seenIface)
		}
		for _, objs := range []map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
			for _, obj := range objs {
				if obj != nil {
					r.collectIfaces(obj.Type(), seenIface)
				}
			}
		}
		r.roots(pkg)
	}
	return r
}

// roots records pkg's functions and marks its roots live.
func (r *reach) roots(pkg *lint.Package) {
	api := pkg.Path == pkg.Module || pkg.Path == pkg.Module+"/client"
	entry := pkg.Types.Name() == "main" &&
		(under(pkg, "/cmd") || under(pkg, "/examples") || under(pkg, "/bench"))
	for _, file := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue // fixture packages load their tests
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				if decl.Tok == token.VAR {
					r.varRoots(pkg, decl)
				}
			case *ast.FuncDecl:
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				r.decls[fn] = funcDecl{pkg, decl}
				name := decl.Name.Name
				switch {
				case decl.Recv == nil && (name == "init" || entry && name == "main"),
					api && fn.Exported() && (recvNamed(fn) == nil || recvNamed(fn).Obj().Exported()),
					pkg.Allowed(pkg.Fset.Position(decl.Pos()), analyzerName):
					r.mark(fn)
				}
			}
		}
	}
}

// varRoots walks the package-level variable declarations that are
// roots and defers the others until a reached body reads them.
func (r *reach) varRoots(pkg *lint.Package, decl *ast.GenDecl) {
	for _, spec := range decl.Specs {
		spec := spec.(*ast.ValueSpec)
		root := false
		for _, id := range spec.Names {
			root = root || id.Name == "_"
		}
		for _, v := range spec.Values {
			root = root || callsFunc(pkg.Info, v)
		}
		if root {
			r.walk(pkg, spec)
			continue
		}
		for _, id := range spec.Names {
			if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
				r.vars[v] = pendingVar{pkg, spec}
			}
		}
	}
}

// callsFunc reports whether evaluating e calls a function: a call that
// is neither a conversion nor a builtin, outside any function literal
// (whose body runs only when called).
func callsFunc(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; !tv.IsType() && !tv.IsBuiltin() {
				found = true
			}
		}
		return !found
	})
	return found
}

// readVar walks the declaration of a package-level variable a reached
// body reads, once.
func (r *reach) readVar(v *types.Var) {
	if d, ok := r.vars[v]; ok {
		for _, id := range d.spec.Names {
			v, _ := d.pkg.Info.Defs[id].(*types.Var)
			delete(r.vars, v)
		}
		r.walk(d.pkg, d.spec)
	}
}

func (r *reach) mark(fn *types.Func) {
	fn = fn.Origin()
	if !r.live[fn] {
		r.live[fn] = true
		r.queue = append(r.queue, fn)
	}
}

// solve runs the worklist to a fixed point: reached functions reach
// what they mention, and reached types reach their interface methods.
func (r *reach) solve() {
	for len(r.queue) > 0 || len(r.newTypes) > 0 {
		if n := len(r.queue); n > 0 {
			fn := r.queue[n-1]
			r.queue = r.queue[:n-1]
			if d, ok := r.decls[fn]; ok {
				r.walk(d.pkg, d.decl)
			}
			continue
		}
		n := r.newTypes[len(r.newTypes)-1]
		r.newTypes = r.newTypes[:len(r.newTypes)-1]
		r.methodsOf(n)
	}
}

// walk marks every function node refers to live and every type it
// mentions reached.
func (r *reach) walk(pkg *lint.Package, node ast.Node) {
	info := pkg.Info
	ast.Inspect(node, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[expr]; ok {
			r.reachType(tv.Type)
		}
		if id, ok := expr.(*ast.Ident); ok {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				r.mark(obj)
			case *types.TypeName:
				r.reachType(obj.Type())
			case *types.Var:
				r.readVar(obj)
			}
			if obj := info.Defs[id]; obj != nil {
				r.reachType(obj.Type())
			}
		}
		return true
	})
}

// reachType records the module's named types within t as reached.
func (r *reach) reachType(t types.Type) {
	visit(t, r.seenTypes, func(t types.Type) bool {
		n, ok := t.(*types.Named)
		if !ok {
			return true
		}
		if !r.inMod[n.Obj().Pkg()] {
			return false
		}
		r.newTypes = append(r.newTypes, n)
		return true
	})
}

// methodsOf marks live the methods of a reached type that an interface
// in the module, or the standard library by name, can call.
func (r *reach) methodsOf(n *types.Named) {
	if n.TypeParams().Len() > n.TypeArgs().Len() {
		return // the generic origin; its instances are checked instead
	}
	if _, ok := n.Underlying().(*types.Interface); ok {
		return
	}
	ptr := types.NewPointer(n)
	mset := types.NewMethodSet(ptr)
	for i := 0; i < mset.Len(); i++ {
		if fn := mset.At(i).Obj().(*types.Func); dynamicMethods[fn.Name()] {
			r.mark(fn)
		}
	}
	for _, iface := range r.ifaces {
		if mset.Lookup(iface.Method(0).Pkg(), iface.Method(0).Name()) == nil || !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			r.mark(mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func))
		}
	}
}

// collectIfaces gathers the interfaces with methods within t: those
// the module declares, and those of the standard library it converts
// to (found in the signatures it calls). A concrete type can satisfy
// only an interface whose methods mention no type parameter.
func (r *reach) collectIfaces(t types.Type, seen map[types.Type]bool) {
	visit(t, seen, func(t types.Type) bool {
		if _, ok := t.(*types.TypeParam); ok {
			return false
		}
		if iface, ok := t.Underlying().(*types.Interface); ok {
			if iface.NumMethods() > 0 && iface.IsMethodSet() && !mentionsTypeParam(iface) {
				r.ifaces = append(r.ifaces, iface)
			}
			return false
		}
		n, ok := t.(*types.Named)
		return !ok || r.inMod[n.Obj().Pkg()]
	})
}

func mentionsTypeParam(iface *types.Interface) bool {
	found := false
	seen := make(map[types.Type]bool)
	for i := 0; i < iface.NumMethods(); i++ {
		visit(iface.Method(i).Type(), seen, func(t types.Type) bool {
			_, tp := t.(*types.TypeParam)
			_, named := t.(*types.Named)
			found = found || tp
			return !found && !named
		})
	}
	return found
}

// visit calls f on t and on the types t is built from: elements, keys,
// fields, parameters, results and type arguments, each once per seen.
// When f returns false, visit does not descend into t, except into the
// type arguments of a named type; it descends into a named type's
// underlying type only when f returns true.
func visit(t types.Type, seen map[types.Type]bool, f func(types.Type) bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	descend := f(t)
	if n, ok := t.(*types.Named); ok {
		for i := 0; i < n.TypeArgs().Len(); i++ {
			visit(n.TypeArgs().At(i), seen, f)
		}
		if descend {
			visit(n.Underlying(), seen, f)
		}
		return
	}
	if !descend {
		return
	}
	switch t := t.(type) {
	case *types.Pointer:
		visit(t.Elem(), seen, f)
	case *types.Slice:
		visit(t.Elem(), seen, f)
	case *types.Array:
		visit(t.Elem(), seen, f)
	case *types.Chan:
		visit(t.Elem(), seen, f)
	case *types.Map:
		visit(t.Key(), seen, f)
		visit(t.Elem(), seen, f)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			visit(t.Field(i).Type(), seen, f)
		}
	case *types.Signature:
		visit(t.Params(), seen, f)
		visit(t.Results(), seen, f)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			visit(t.At(i).Type(), seen, f)
		}
	}
}
