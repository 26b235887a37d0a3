package gaea

// Tests for the task log's delta records: a refresh, a repeat load and a
// repeat interpolation are stored against an earlier task, and a reopen
// reads every task back as it was recorded.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/task"
	"gaea/internal/value"
)

// deltaForm is the leading byte of a delta task record.
const deltaForm = 0x02

// lineageView is everything the executor answers about a task log.
type lineageView struct {
	tasks     []*task.Task
	producers map[object.OID]*task.Task
	consumers map[object.OID][]*task.Task
	explain   map[object.OID]string
	memoHit   task.ID
}

// viewLineage records every task and, for every object a task names,
// its producer, consumers and explanation, and the task a memoised
// change-map run answers with.
func viewLineage(t *testing.T, k *Kernel, cmIn map[string][]object.OID) lineageView {
	t.Helper()
	v := lineageView{
		tasks:     k.Tasks.All(),
		producers: map[object.OID]*task.Task{},
		consumers: map[object.OID][]*task.Task{},
		explain:   map[object.OID]string{},
	}
	for _, tk := range v.tasks {
		oids := tk.Outputs()
		for _, in := range tk.Inputs {
			oids = append(oids, in...)
		}
		for _, oid := range oids {
			v.producers[oid], _ = k.Tasks.Producer(oid)
			v.consumers[oid] = k.Tasks.Consumers(oid)
			v.explain[oid] = k.Explain(oid)
		}
	}
	hit, reused, err := k.RunProcess(context.Background(), "change_map", cmIn, RunOptions{})
	if err != nil || !reused {
		t.Fatalf("change map run = %+v, reused %v, %v", hit, reused, err)
	}
	v.memoHit = hit.ID
	return v
}

// TestTaskLogReopenEquivalence refreshes a change map and its land cover
// 20 times under each refresh policy, recomputes it once under another
// user and once under a note, interleaves sessions of two classes under
// two notes, and interpolates twice. After a reopen, which resolves
// every delta record against its base, the executor answers exactly as
// it did before.
func TestTaskLogReopenEquivalence(t *testing.T) {
	ctx := context.Background()
	k := openKernelOpts(t, Options{NoSync: true, User: "tester"})
	dir := k.Dir()
	defineRainClass(t, k)
	for _, c := range []*catalog.Class{
		{
			Name: "snow", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
			Frame: sptemp.DefaultFrame, HasSpatial: true,
		},
		{
			Name: "land_cover_changes", Kind: catalog.KindDerived, DerivedBy: "change_map",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
	} {
		if err := k.DefineClass(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.DefineProcess(changeMapBench); err != nil {
		t.Fatal(err)
	}
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	later := loadScene(t, k, sptemp.Date(1986, 3, 15), 1986)
	lc := make([]object.OID, 2)
	for i, bands := range [][]object.OID{scene, later} {
		tk, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": bands}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lc[i] = tk.Output
	}
	cmIn := map[string][]object.OID{"a": {lc[0]}, "b": {lc[1]}}
	cm, _, err := k.RunProcess(ctx, "change_map", cmIn, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(policy RefreshPolicy) *Kernel {
		t.Helper()
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
		k2, err := Open(dir, Options{NoSync: true, User: "tester", RefreshPolicy: policy})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { k2.Close() })
		return k2
	}

	for _, policy := range []RefreshPolicy{EagerRefresh, ManualRefresh, LazyRefresh} {
		k = reopen(policy)
		for i := 0; i < 20; i++ {
			replaceBand(t, k, scene[0], raster.BandRed, 1990+i%2)
			switch policy {
			case EagerRefresh:
				for deadline := time.Now().Add(5 * time.Second); len(k.Stale()) > 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("eager refresh %d: still stale: %v", i, k.Stale())
					}
				}
			case ManualRefresh:
				if n, err := k.RefreshStale(ctx); err != nil || n != 2 {
					t.Fatalf("manual refresh %d = %d, %v", i, n, err)
				}
			case LazyRefresh:
				if _, reused, err := k.RunProcess(ctx, "change_map", cmIn, RunOptions{}); err != nil || reused {
					t.Fatalf("lazy refresh %d: reused %v, %v", i, reused, err)
				}
			}
			if stale := k.Stale(); len(stale) > 0 {
				t.Fatalf("%s refresh %d left %v stale", policy, i, stale)
			}
		}
	}
	for _, opts := range []task.RunOptions{{User: "auditor"}, {User: "tester", Note: "audit re-run"}} {
		prod, _ := k.Tasks.Producer(cm.Output)
		if _, err := k.Tasks.RecomputeTask(ctx, prod.ID, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		s := k.Begin(ctx)
		x := float64(1000 * i)
		for _, c := range []struct{ class, note string }{
			{"rain", "north"}, {"snow", "south"}, {"rain", "south"}, {"rain", "north"}, {"snow", "north"},
		} {
			o := rainObject(float64(i), x)
			o.Class = c.class
			if _, err := s.Create(o, c.note); err != nil {
				t.Fatal(err)
			}
			x += 20
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, day := range []int{14, 20} {
		if _, err := k.Interp.Temporal(ctx, "landsat_tm", sptemp.Date(1986, 2, day),
			sptemp.NewBox(0, 0, 300, 300), task.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	deltas := 0
	if err := k.Store.Scan("tasks", func(_ storage.RID, rec []byte) bool {
		if rec[0] == deltaForm {
			deltas++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// 120 policy refreshes and 2 recomputes, 4 repeat single-band loads,
	// 8 repeat session loads and 1 repeat interpolation.
	if want := 120 + 2 + 4 + 8 + 1; deltas != want {
		t.Errorf("%d of %d task records are deltas, want %d", deltas, len(k.Tasks.All()), want)
	}
	before := viewLineage(t, k, cmIn)
	k = reopen(LazyRefresh)
	after := viewLineage(t, k, cmIn)
	if !reflect.DeepEqual(before.tasks, after.tasks) {
		for i := range min(len(before.tasks), len(after.tasks)) {
			if !reflect.DeepEqual(before.tasks[i], after.tasks[i]) {
				t.Fatalf("task %d reads back as %+v, recorded %+v", before.tasks[i].ID, after.tasks[i], before.tasks[i])
			}
		}
		t.Fatalf("%d tasks read back, %d recorded", len(after.tasks), len(before.tasks))
	}
	if !reflect.DeepEqual(before.producers, after.producers) || !reflect.DeepEqual(before.consumers, after.consumers) {
		t.Error("producers or consumers changed across the reopen")
	}
	for oid, want := range before.explain {
		if got := after.explain[oid]; got != want {
			t.Errorf("explain %d after reopen:\n%s\nbefore:\n%s", oid, got, want)
		}
	}
	if before.memoHit != after.memoHit {
		t.Errorf("memo hit task %d after reopen, %d before", after.memoHit, before.memoHit)
	}
}

// TestOpenRefusesCorruptTaskLog: a task log holding a record that does
// not decode, or a delta whose base it cannot hold, fails to open with
// task.ErrCorruptLog, whether the fault is in the record or in the log.
func TestOpenRefusesCorruptTaskLog(t *testing.T) {
	for _, c := range []struct {
		what string
		rec  []byte
	}{
		{"a truncated full record", []byte{0x01, 5, 0}},
		{"a delta whose base is not in the log", []byte{deltaForm, 50, 1, 0}},
		{"a delta that is its own base", []byte{deltaForm, 5, 0, 0}},
		{"a delta whose base would be below task 1", []byte{deltaForm, 5, 9, 0}},
		{"a delta with an unknown mask bit", []byte{deltaForm, 5, 1, 0x80, 0x02}},
	} {
		dir := t.TempDir()
		k, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		b := k.Store.NewBatch()
		b.Insert("tasks", c.rec)
		if _, err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
		k, err = Open(dir, Options{NoSync: true})
		if err == nil {
			k.Close()
		}
		if !errors.Is(err, task.ErrCorruptLog) {
			t.Errorf("%s: open = %v, want task.ErrCorruptLog", c.what, err)
		}
	}
}
