// Package lockorder statically enforces the mutex-acquisition order
// documented in PR 4 across internal/storage and internal/object. The
// commit path may hold several locks at once; deadlock freedom rests on
// every path acquiring them in one global order:
//
//	object.Store.commitMu   (1, commit serialisation)
//	storage.Store.mu        (2, checkpoint exclusion, usually RLock)
//	storage.Store.pageMu    (3, page-changing commits, plan to apply)
//	storage.Heap.mu         (4, per-heap page access)
//	storage.bufferPool.mu   (5, buffer freelist)
//	storage.Store.metaMu    (6, metadata + WAL group section)
//	storage.wal.mu          (7, log append)
//	object.Store.mu         (8, catalog map — leaf, never across storage I/O)
//
// The analyzer computes, per function, the set of locks it may acquire
// (transitively, via facts that flow across packages) and walks each
// body in source order tracking the held set; acquiring a lock ranked
// at or below one already held is reported.
package lockorder

import (
	"go/ast"
	"go/types"

	"gaea/internal/lint"
)

// Analyzer is the lockorder invariant checker.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc: "mutexes in internal/storage and internal/object must be acquired " +
		"in the documented global order (see PR 4)",
	Run: run,
}

// ranks is the documented global acquisition order, ascending.
var ranks = map[string]int{
	"object.Store.commitMu": 1,
	"storage.Store.mu":      2,
	"storage.Store.pageMu":  3,
	"storage.Heap.mu":       4,
	"storage.bufferPool.mu": 5,
	"storage.Store.metaMu":  6,
	"storage.wal.mu":        7,
	"object.Store.mu":       8,
	// Federation coordinator locks rank below every kernel lock: the
	// router never calls into a local kernel while holding them (it
	// talks to shards over the wire), but the decision log is always
	// taken under — never around — the router mutex.
	"fed.Router.mu":      9,
	"fed.decisionLog.mu": 10,
}

const orderDoc = "commitMu → storage.Store.mu → pageMu → Heap.mu → bufferPool.mu → metaMu → wal.mu → object.Store.mu → fed.Router.mu → fed.decisionLog.mu"

// lockSet is the per-function fact: ranked locks the function may
// acquire, directly or through callees.
type lockSet struct {
	Locks []string
}

func run(pass *lint.Pass) error {
	fns := collectFuncs(pass)

	// Pass A: per-function transitive lock sets, to a fixed point so
	// in-package call chains converge; cross-package sets arrive as facts
	// from already-analyzed dependencies.
	for round := 0; round <= len(fns); round++ {
		changed := false
		for _, fn := range fns {
			if updateLockSet(pass, fn) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Pass B: source-order held-set walk over every function body.
	for _, fn := range fns {
		w := &walker{pass: pass}
		w.stmts(fn.decl.Body.List)
	}
	return nil
}

type funcInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
}

func collectFuncs(pass *lint.Pass) []*funcInfo {
	var out []*funcInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			out = append(out, &funcInfo{decl: fd, obj: obj})
		}
	}
	return out
}

// lockIdent extracts the ranked lock identity of a Lock/RLock/Unlock/
// RUnlock call, or "". Identities are pkgname.TypeName.field for field
// mutexes and pkgname.var for package-level ones.
func lockIdent(pass *lint.Pass, call *ast.CallExpr) (id string, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	op = sel.Sel.Name
	info := pass.TypesInfo
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// owner.field.Lock(): identity from the owner's named type.
		t := info.TypeOf(x.X)
		if t == nil {
			return "", ""
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return "", ""
		}
		return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + x.Sel.Name, op
	case *ast.Ident:
		// Package-level mutex: mu.Lock().
		obj := info.ObjectOf(x)
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), op
		}
	}
	return "", ""
}

func isAcquire(op string) bool {
	return op == "Lock" || op == "RLock" || op == "TryLock" || op == "TryRLock"
}

// updateLockSet recomputes fn's transitive lock set; reports growth.
func updateLockSet(pass *lint.Pass, fn *funcInfo) bool {
	var have lockSet
	pass.ImportObjectFact(fn.obj, &have)
	set := make(map[string]bool)
	for _, l := range have.Locks {
		set[l] = true
	}
	grew := false
	add := func(l string) {
		if l != "" && ranks[l] != 0 && !set[l] {
			set[l] = true
			grew = true
		}
	}
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, op := lockIdent(pass, call); id != "" && isAcquire(op) {
			add(id)
			return true
		}
		if f := lint.FuncObj(pass.TypesInfo, call); f != nil {
			var callee lockSet
			if pass.ImportObjectFact(f, &callee) {
				for _, l := range callee.Locks {
					add(l)
				}
			}
		}
		return true
	})
	if grew {
		fact := lockSet{}
		for l := range set {
			fact.Locks = append(fact.Locks, l)
		}
		sortStrings(fact.Locks)
		pass.ExportObjectFact(fn.obj, &fact)
	}
	return grew
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// walker tracks the held lock set in source order.
type walker struct {
	pass *lint.Pass
	held []string // acquisition order
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// function (so: no release here); deferred helper calls are
		// checked against the held set at the defer site.
		if id, _ := lockIdent(w.pass, s.Call); id != "" {
			return
		}
		w.checkCall(s.Call)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.exprOpt(s.Cond)
		w.stmt(s.Body)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.exprOpt(s.Cond)
		w.stmt(s.Body)
		if s.Post != nil {
			w.stmt(s.Post)
		}
	case *ast.RangeStmt:
		w.exprOpt(s.X)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.exprOpt(s.Tag)
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.exprOpt(e)
		}
		w.stmts(s.Body)
	case *ast.CommClause:
		if s.Comm != nil {
			w.stmt(s.Comm)
		}
		w.stmts(s.Body)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.GoStmt:
		// The goroutine has its own held set; its body is checked as a
		// fresh root.
		fresh := &walker{pass: w.pass}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			fresh.stmts(lit.Body.List)
		}
	case *ast.SendStmt:
		w.expr(s.Value)
	case *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.IncDecStmt:
	}
}

func (w *walker) exprOpt(e ast.Expr) {
	if e != nil {
		w.expr(e)
	}
}

// expr processes acquisitions, releases, and callee lock sets inside an
// expression, in source order.
func (w *walker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fresh := &walker{pass: w.pass}
			fresh.stmts(n.Body.List)
			return false
		case *ast.CallExpr:
			if id, op := lockIdent(w.pass, n); id != "" {
				if isAcquire(op) {
					w.acquire(id, n)
				} else {
					w.release(id)
				}
				return false
			}
			w.checkCall(n)
		}
		return true
	})
}

func (w *walker) acquire(id string, at *ast.CallExpr) {
	r := ranks[id]
	if r == 0 {
		return
	}
	for _, h := range w.held {
		if ranks[h] > r {
			w.pass.Reportf(at.Pos(),
				"acquires %s (rank %d) while %s (rank %d) is held — violates the documented lock order (%s)",
				id, r, h, ranks[h], orderDoc)
		}
	}
	w.held = append(w.held, id)
}

func (w *walker) release(id string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == id {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// checkCall validates a callee's transitive lock set against the locks
// currently held at the call site.
func (w *walker) checkCall(call *ast.CallExpr) {
	if len(w.held) == 0 {
		return
	}
	f := lint.FuncObj(w.pass.TypesInfo, call)
	if f == nil {
		return
	}
	var callee lockSet
	if !w.pass.ImportObjectFact(f, &callee) {
		return
	}
	for _, l := range callee.Locks {
		r := ranks[l]
		if r == 0 {
			continue
		}
		for _, h := range w.held {
			if ranks[h] > r {
				w.pass.Reportf(call.Pos(),
					"call to %s acquires %s (rank %d) while %s (rank %d) is held — violates the documented lock order (%s)",
					f.Name(), l, r, h, ranks[h], orderDoc)
			}
		}
	}
}
