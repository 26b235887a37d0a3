package deriv

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/process"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/task"
	"gaea/internal/value"
)

// The fixture builds a three-level derivation chain over scalar classes:
// base c0 → c1 (process p1 copies v) → c2 (process p2 copies v), so a
// refresh visibly propagates the base value through the chain.
type world struct {
	dir  string
	st   *storage.Store
	cat  *catalog.Catalog
	obj  *object.Store
	exec *task.Executor
	mgr  *Manager
}

func newWorld(t *testing.T, cfg Config) *world {
	t.Helper()
	return openWorld(t, t.TempDir(), cfg)
}

func openWorld(t *testing.T, dir string, cfg Config) *world {
	t.Helper()
	st, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	classes := []*catalog.Class{
		{Name: "c0", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "v", Type: value.TypeFloat}},
			Frame: sptemp.DefaultFrame, HasSpatial: true},
		{Name: "c1", Kind: catalog.KindDerived, DerivedBy: "p1",
			Attrs: []catalog.Attr{{Name: "v", Type: value.TypeFloat}},
			Frame: sptemp.DefaultFrame, HasSpatial: true},
		{Name: "c2", Kind: catalog.KindDerived, DerivedBy: "p2",
			Attrs: []catalog.Attr{{Name: "v", Type: value.TypeFloat}},
			Frame: sptemp.DefaultFrame, HasSpatial: true},
	}
	for _, c := range classes {
		if !cat.Exists(c.Name) {
			if err := cat.Define(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := adt.NewStandardRegistry()
	obj, err := object.Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	pmgr, err := process.OpenManager(st, cat, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{`
DEFINE PROCESS p1 (
  OUTPUT o c1
  ARGUMENT ( x c0 )
  TEMPLATE {
    MAPPINGS:
      o.v = x.v;
      o.spatialextent = x.spatialextent;
  }
)`, `
DEFINE PROCESS p2 (
  OUTPUT o c2
  ARGUMENT ( x c1 )
  TEMPLATE {
    MAPPINGS:
      o.v = x.v;
      o.spatialextent = x.spatialextent;
  }
)`} {
		name := []string{"p1", "p2"}[i]
		if _, err := pmgr.Lookup(name); err != nil {
			if _, err := pmgr.Define(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	exec, err := task.OpenExecutor(st, cat, reg, obj, pmgr)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := Open(st, obj, exec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		mgr.Close()
		st.Close()
	})
	return &world{dir: dir, st: st, cat: cat, obj: obj, exec: exec, mgr: mgr}
}

func (w *world) insertBase(t *testing.T, v float64) object.OID {
	t.Helper()
	oid, err := w.obj.Insert(&object.Object{
		Class:  "c0",
		Attrs:  map[string]value.Value{"v": value.Float(v)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 10, 10)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

// deriveChain runs p1 then p2 and returns (c1 oid, c2 oid).
func (w *world) deriveChain(t *testing.T, base object.OID) (object.OID, object.OID) {
	t.Helper()
	t1, _, err := w.exec.Run(context.Background(), "p1", map[string][]object.OID{"x": {base}}, task.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := w.exec.Run(context.Background(), "p2", map[string][]object.OID{"x": {t1.Output}}, task.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return t1.Output, t2.Output
}

func (w *world) val(t *testing.T, oid object.OID) float64 {
	t.Helper()
	o, err := w.obj.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	return float64(o.Attrs["v"].(value.Float))
}

// setBase updates the base object's value in place and propagates.
func (w *world) setBase(t *testing.T, oid object.OID, v float64) {
	t.Helper()
	o, err := w.obj.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	o.Attrs["v"] = value.Float(v)
	if err := w.obj.Update(o); err != nil {
		t.Fatal(err)
	}
	if err := w.mgr.ObjectsChanged([]object.OID{oid}, nil, w.obj.CurrentEpoch()); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidationPropagatesTransitively(t *testing.T) {
	w := newWorld(t, Config{Policy: Manual})
	base := w.insertBase(t, 1)
	o1, o2 := w.deriveChain(t, base)

	if c := w.mgr.Counters(); c.Deps != 2 {
		t.Fatalf("tracked dependency edges = %d, want 2", c.Deps)
	}
	if len(w.mgr.Stale()) != 0 {
		t.Fatalf("nothing should be stale yet: %v", w.mgr.Stale())
	}

	w.setBase(t, base, 2)

	stale := w.mgr.Stale()
	if len(stale) != 2 || stale[0] != o1 || stale[1] != o2 {
		t.Fatalf("stale = %v, want [%d %d]", stale, o1, o2)
	}
	if w.mgr.IsStale(base) {
		t.Error("the updated object itself must stay fresh")
	}
	c := w.mgr.Counters()
	if c.Deps != 2 || c.Stale != 2 || c.Invalidations != 2 || c.Epoch == 0 {
		t.Errorf("counters = %+v", c)
	}

	// A second update issues a later epoch.
	before := c.Epoch
	w.setBase(t, base, 3)
	if c2 := w.mgr.Counters(); c2.Epoch <= before {
		t.Errorf("epoch did not advance: %d -> %d", before, c2.Epoch)
	}
}

func TestRefreshObjectAncestorsFirst(t *testing.T) {
	w := newWorld(t, Config{Policy: Manual})
	base := w.insertBase(t, 1)
	o1, o2 := w.deriveChain(t, base)
	w.setBase(t, base, 42)

	// Refreshing the leaf must refresh the intermediate first.
	if err := w.mgr.RefreshObject(context.Background(), o2); err != nil {
		t.Fatal(err)
	}
	if v := w.val(t, o1); v != 42 {
		t.Errorf("c1 value after refresh = %v", v)
	}
	if v := w.val(t, o2); v != 42 {
		t.Errorf("c2 value after refresh = %v", v)
	}
	if n := len(w.mgr.Stale()); n != 0 {
		t.Errorf("stale after refresh = %v", w.mgr.Stale())
	}
	if c := w.mgr.Counters(); c.Refreshes != 2 {
		t.Errorf("refreshes = %d, want 2", c.Refreshes)
	}
	// Refreshing a fresh object is a no-op.
	if err := w.mgr.RefreshObject(context.Background(), o2); err != nil {
		t.Fatal(err)
	}
	if c := w.mgr.Counters(); c.Refreshes != 2 {
		t.Errorf("no-op refresh bumped the counter: %d", c.Refreshes)
	}
}

func TestRefreshStaleManual(t *testing.T) {
	w := newWorld(t, Config{Policy: Manual})
	base := w.insertBase(t, 1)
	o1, o2 := w.deriveChain(t, base)
	w.setBase(t, base, 7)

	n, err := w.mgr.RefreshStale(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("refreshed = %d, want 2", n)
	}
	if w.val(t, o1) != 7 || w.val(t, o2) != 7 {
		t.Errorf("values after RefreshStale = %v, %v", w.val(t, o1), w.val(t, o2))
	}
	// Idempotent.
	if n, err := w.mgr.RefreshStale(context.Background()); err != nil || n != 0 {
		t.Errorf("second RefreshStale = %d, %v", n, err)
	}
}

func TestMemoStaleHitRefreshesInPlace(t *testing.T) {
	w := newWorld(t, Config{Policy: Lazy})
	base := w.insertBase(t, 1)
	o1, _ := w.deriveChain(t, base)
	w.setBase(t, base, 9)

	// The same instantiation again: the memo entry's output is stale, so
	// the executor must refresh it in place rather than serve it as-is.
	tk, reused, err := w.exec.Run(context.Background(), "p1", map[string][]object.OID{"x": {base}}, task.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("stale memo hit must not count as reuse")
	}
	if tk.Output != o1 {
		t.Errorf("refresh changed the output OID: %d -> %d", o1, tk.Output)
	}
	if v := w.val(t, o1); v != 9 {
		t.Errorf("value after stale memo hit = %v", v)
	}
	if w.mgr.IsStale(o1) {
		t.Error("output still stale after refresh")
	}
	// And now it memoises normally again.
	tk2, reused, err := w.exec.Run(context.Background(), "p1", map[string][]object.OID{"x": {base}}, task.RunOptions{})
	if err != nil || !reused || tk2.ID != tk.ID {
		t.Errorf("fresh memo hit = %+v reused=%v err=%v", tk2, reused, err)
	}
}

func TestEagerPolicyRefreshesInBackground(t *testing.T) {
	w := newWorld(t, Config{Policy: Eager})
	base := w.insertBase(t, 1)
	o1, o2 := w.deriveChain(t, base)
	w.setBase(t, base, 5)

	deadline := time.Now().Add(5 * time.Second)
	for len(w.mgr.Stale()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background refresher did not drain: stale=%v", w.mgr.Stale())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w.val(t, o1) != 5 || w.val(t, o2) != 5 {
		t.Errorf("values after eager refresh = %v, %v", w.val(t, o1), w.val(t, o2))
	}
	if c := w.mgr.Counters(); c.Refreshes != 2 {
		t.Errorf("refreshes = %d, want 2", c.Refreshes)
	}
}

func TestCostModelDropsCheapLargeObjects(t *testing.T) {
	// Everything is cheaper to re-derive than to keep under this model.
	w := newWorld(t, Config{Policy: Lazy, Cost: CostModel{DropMicros: 1 << 40, DropBytes: 1}})
	base := w.insertBase(t, 1)
	o1, o2 := w.deriveChain(t, base)
	w.setBase(t, base, 2)

	if w.obj.Exists(o1) || w.obj.Exists(o2) {
		t.Fatalf("invalidated dependents should have been dropped: %v %v",
			w.obj.Exists(o1), w.obj.Exists(o2))
	}
	if n := len(w.mgr.Stale()); n != 0 {
		t.Errorf("dropped objects left stale markers: %v", w.mgr.Stale())
	}
	if c := w.mgr.Counters(); c.Drops != 2 {
		t.Errorf("drops = %d, want 2", c.Drops)
	}
	// The memo was forgotten with the drop: the same instantiation
	// re-executes over the updated base.
	tk, reused, err := w.exec.Run(context.Background(), "p1", map[string][]object.OID{"x": {base}}, task.RunOptions{})
	if err != nil || reused {
		t.Fatalf("run after drop = reused=%v err=%v", reused, err)
	}
	if v := w.val(t, tk.Output); v != 2 {
		t.Errorf("re-derived value = %v", v)
	}
}

func TestDeletePropagatesAndForgets(t *testing.T) {
	w := newWorld(t, Config{Policy: Manual})
	base := w.insertBase(t, 1)
	o1, o2 := w.deriveChain(t, base)

	if err := w.obj.Delete(base); err != nil {
		t.Fatal(err)
	}
	if err := w.mgr.ObjectsChanged(nil, []object.OID{base}, w.obj.CurrentEpoch()); err != nil {
		t.Fatal(err)
	}
	stale := w.mgr.Stale()
	if len(stale) != 2 || stale[0] != o1 || stale[1] != o2 {
		t.Fatalf("stale after delete = %v", stale)
	}
	// Refreshing the dependents must fail: their input is gone.
	if err := w.mgr.RefreshObject(context.Background(), o1); err == nil {
		t.Error("refresh with deleted input should fail")
	}
	// RefreshStale cannot bring them up to date either, so it drops them
	// — the stale set must converge instead of erroring forever.
	if _, err := w.mgr.RefreshStale(context.Background()); err != nil {
		t.Fatalf("RefreshStale after input deletion: %v", err)
	}
	if len(w.mgr.Stale()) != 0 {
		t.Errorf("stale set did not converge: %v", w.mgr.Stale())
	}
	if w.obj.Exists(o1) || w.obj.Exists(o2) {
		t.Errorf("orphaned dependents should be dropped: %v %v", w.obj.Exists(o1), w.obj.Exists(o2))
	}
}

// TestManualPolicyNeverRefreshesInPlace: under Manual, a stale memo hit
// derives a fresh object; the recorded object stays stale (and refreshable
// via RefreshStale) until the caller says so.
func TestManualPolicyNeverRefreshesInPlace(t *testing.T) {
	w := newWorld(t, Config{Policy: Manual})
	base := w.insertBase(t, 1)
	o1, _ := w.deriveChain(t, base)
	w.setBase(t, base, 9)

	tk, reused, err := w.exec.Run(context.Background(), "p1", map[string][]object.OID{"x": {base}}, task.RunOptions{})
	if err != nil || reused {
		t.Fatalf("run over stale memo = reused=%v err=%v", reused, err)
	}
	if tk.Output == o1 {
		t.Fatal("Manual policy recomputed the recorded object in place")
	}
	if v := w.val(t, tk.Output); v != 9 {
		t.Errorf("fresh derivation value = %v", v)
	}
	if !w.mgr.IsStale(o1) {
		t.Error("recorded object must stay stale under Manual")
	}
	// The fresh task took over the memo…
	tk2, reused, err := w.exec.Run(context.Background(), "p1", map[string][]object.OID{"x": {base}}, task.RunOptions{})
	if err != nil || !reused || tk2.ID != tk.ID {
		t.Errorf("memo after fresh derivation = %+v reused=%v err=%v", tk2, reused, err)
	}
	// …while the stale object kept its producer, so RefreshStale still
	// recomputes it in place. (o2 refreshes too: 2 refreshed.)
	if n, err := w.mgr.RefreshStale(context.Background()); err != nil || n != 2 {
		t.Fatalf("RefreshStale = %d, %v", n, err)
	}
	if v := w.val(t, o1); v != 9 {
		t.Errorf("value after manual refresh = %v", v)
	}
}

func TestStalenessSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w := openWorld(t, dir, Config{Policy: Manual})
	base := w.insertBase(t, 1)
	o1, o2 := w.deriveChain(t, base)
	w.setBase(t, base, 2)
	epochBefore := w.mgr.Counters().Epoch
	w.mgr.Close()
	if err := w.st.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWorld(t, dir, Config{Policy: Manual})
	stale := w2.mgr.Stale()
	if len(stale) != 2 || stale[0] != o1 || stale[1] != o2 {
		t.Fatalf("stale after reopen = %v, want [%d %d]", stale, o1, o2)
	}
	if got := w2.mgr.Counters().Epoch; got != epochBefore {
		t.Errorf("epoch after reopen = %d, want %d", got, epochBefore)
	}
	// The graph was rebuilt from the task log: refresh still works.
	if n, err := w2.mgr.RefreshStale(context.Background()); err != nil || n != 2 {
		t.Fatalf("RefreshStale after reopen = %d, %v", n, err)
	}
	if w2.val(t, o2) != 2 {
		t.Errorf("value after reopen+refresh = %v", w2.val(t, o2))
	}
}

// TestCorruptStaleMarkFailsOpen: a stale mark of any length but the one
// form's 16 bytes — a torn one, or the 8-byte form of pre-MVCC stores —
// fails Open, naming its key, instead of serving its object as fresh.
func TestCorruptStaleMarkFailsOpen(t *testing.T) {
	for _, n := range []int{7, 8} {
		w := newWorld(t, Config{Policy: Manual})
		base := w.insertBase(t, 1)
		o1, _ := w.deriveChain(t, base)
		if err := w.st.MetaSet(staleKey(o1), make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		w.mgr.Close()
		_, err := Open(w.st, w.obj, w.exec, Config{Policy: Manual})
		if err == nil || !strings.Contains(err.Error(), staleKey(o1)) {
			t.Errorf("Open over a %d-byte stale mark: %v, want an error naming %s", n, err, staleKey(o1))
		}
	}
}

func TestExternalDerivationsDroppedByRefreshStale(t *testing.T) {
	w := newWorld(t, Config{Policy: Manual})
	base := w.insertBase(t, 1)
	// Commit an external derivation (e.g. an interpolation) over base.
	out := &object.Object{
		Class:  "c1",
		Attrs:  map[string]value.Value{"v": value.Float(1)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 10, 10)),
	}
	extOut, err := w.obj.Reserve(out)
	if err != nil {
		t.Fatal(err)
	}
	tasks := w.exec.StageExternal("interpolation", map[string][]object.OID{"src": {base}}, []task.Run{{uint64(extOut), 1}}, "c1", task.RunOptions{})
	if _, err := w.exec.Apply(object.BatchOps{Inserts: []*object.Object{out}}, tasks); err != nil {
		t.Fatal(err)
	}
	w.setBase(t, base, 2)
	if !w.mgr.IsStale(extOut) {
		t.Fatal("external derivation output should be stale")
	}
	// It cannot be recomputed in place…
	if err := w.mgr.RefreshObject(context.Background(), extOut); !errors.Is(err, ErrUnrefreshable) {
		t.Fatalf("refresh external = %v, want ErrUnrefreshable", err)
	}
	// …so RefreshStale drops it instead of leaving it stale forever.
	if _, err := w.mgr.RefreshStale(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w.obj.Exists(extOut) {
		t.Error("unrefreshable stale object should have been dropped")
	}
	if len(w.mgr.Stale()) != 0 {
		t.Errorf("stale set should converge to empty: %v", w.mgr.Stale())
	}
}

func TestConcurrentUpdatesAndRefreshes(t *testing.T) {
	w := newWorld(t, Config{Policy: Lazy, Workers: 4})
	base := w.insertBase(t, 1)
	o1, o2 := w.deriveChain(t, base)

	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 10; i++ {
				o, err := w.obj.Get(base)
				if err != nil {
					done <- err
					return
				}
				o.Attrs["v"] = value.Float(float64(g*100 + i))
				if err := w.obj.Update(o); err != nil {
					done <- err
					return
				}
				if err := w.mgr.ObjectsChanged([]object.OID{base}, nil, w.obj.CurrentEpoch()); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				if _, err := w.mgr.RefreshStale(context.Background()); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Converge: one final refresh leaves everything fresh and consistent.
	if _, err := w.mgr.RefreshStale(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(w.mgr.Stale()) != 0 {
		t.Fatalf("stale after convergence = %v", w.mgr.Stale())
	}
	final := w.val(t, base)
	if w.val(t, o1) != final || w.val(t, o2) != final {
		t.Errorf("chain did not converge: base=%v c1=%v c2=%v", final, w.val(t, o1), w.val(t, o2))
	}
}
