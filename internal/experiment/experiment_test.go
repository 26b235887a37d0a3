package experiment

import (
	"context"
	"errors"
	"testing"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/process"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/task"
	"gaea/internal/value"
)

type world struct {
	st   *storage.Store
	obj  *object.Store
	exec *task.Executor
	mgr  *Manager
}

func newWorld(t *testing.T) *world {
	t.Helper()
	st, err := storage.Open(t.TempDir(), storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*catalog.Class{
		{
			Name: "scene", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
		{
			Name: "ndvi", Kind: catalog.KindDerived, DerivedBy: "ndvi_map",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
	} {
		if err := cat.Define(c); err != nil {
			t.Fatal(err)
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
	if _, err := pmgr.Define(`
DEFINE PROCESS ndvi_map (
  OUTPUT o ndvi
  ARGUMENT ( red scene )
  ARGUMENT ( nir scene )
  TEMPLATE {
    MAPPINGS:
      o.data = ndvi ( red.data, nir.data );
      o.spatialextent = red.spatialextent;
      o.timestamp = red.timestamp;
  }
)`); err != nil {
		t.Fatal(err)
	}
	exec, err := task.OpenExecutor(st, cat, reg, obj, pmgr)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := OpenManager(st, exec)
	if err != nil {
		t.Fatal(err)
	}
	return &world{st: st, obj: obj, exec: exec, mgr: mgr}
}

func (w *world) insertPair(t *testing.T) (red, nir object.OID) {
	t.Helper()
	l := raster.NewLandscape(3)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 8, Cols: 8, DayOfYear: 180, Year: 1986}
	r, err := l.GenerateBand(spec, raster.BandRed)
	if err != nil {
		t.Fatal(err)
	}
	n, err := l.GenerateBand(spec, raster.BandNIR)
	if err != nil {
		t.Fatal(err)
	}
	day := sptemp.Date(1986, 6, 29)
	mk := func(img *raster.Image) object.OID {
		oid, err := w.obj.Insert(&object.Object{
			Class:  "scene",
			Attrs:  map[string]value.Value{"data": value.Image{Img: img}},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 240, 240), day),
		})
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	return mk(r), mk(n)
}

func TestCreateAttachGet(t *testing.T) {
	w := newWorld(t)
	red, nir := w.insertPair(t)
	if err := w.mgr.Create(&Experiment{
		Name: "africa-ndvi-1986", User: "alice",
		Params: map[string]string{"region": "africa", "year": "1986"},
	}); err != nil {
		t.Fatal(err)
	}
	tk, _, err := w.exec.Run(context.Background(), "ndvi_map", map[string][]object.OID{"red": {red}, "nir": {nir}}, task.RunOptions{User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.mgr.AttachTask("africa-ndvi-1986", tk.ID); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-attach.
	if err := w.mgr.AttachTask("africa-ndvi-1986", tk.ID); err != nil {
		t.Fatal(err)
	}
	e, err := w.mgr.Get("africa-ndvi-1986")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Tasks) != 1 || e.Params["year"] != "1986" {
		t.Errorf("experiment = %+v", e)
	}
	// Errors.
	if err := w.mgr.Create(&Experiment{Name: "africa-ndvi-1986"}); !errors.Is(err, ErrExists) {
		t.Errorf("dup err = %v", err)
	}
	if err := w.mgr.Create(&Experiment{Name: "9bad"}); !errors.Is(err, ErrBad) {
		t.Errorf("bad name err = %v", err)
	}
	if err := w.mgr.AttachTask("ghost", tk.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing exp err = %v", err)
	}
	if err := w.mgr.AttachTask("africa-ndvi-1986", 999); !errors.Is(err, ErrBad) {
		t.Errorf("missing task err = %v", err)
	}
	if _, err := w.mgr.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get missing err = %v", err)
	}
}

func TestReproduceExperiment(t *testing.T) {
	w := newWorld(t)
	red, nir := w.insertPair(t)
	w.mgr.Create(&Experiment{Name: "repro-study", User: "alice"})
	tk, _, err := w.exec.Run(context.Background(), "ndvi_map", map[string][]object.OID{"red": {red}, "nir": {nir}}, task.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.mgr.AttachTask("repro-study", tk.ID)

	tasks := len(w.exec.All())
	report, err := w.mgr.Reproduce(context.Background(), "repro-study", task.RunOptions{User: "referee"})
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllIdentical() {
		t.Errorf("reproduction should be identical: %+v", report.PerTask)
	}
	if n := len(w.exec.All()); n != tasks {
		t.Errorf("reproduction recorded %d tasks, want none", n-tasks)
	}
	// Reproducing an unknown experiment fails.
	if _, err := w.mgr.Reproduce(context.Background(), "ghost", task.RunOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing err = %v", err)
	}
	// Empty experiment: AllIdentical is false (nothing confirmed).
	w.mgr.Create(&Experiment{Name: "empty"})
	empty, _ := w.mgr.Reproduce(context.Background(), "empty", task.RunOptions{})
	if empty.AllIdentical() {
		t.Error("empty experiment confirms nothing")
	}
}

// TestReproduceExperimentParallel reproduces an experiment's tasks on a
// worker pool; the report keeps attach order. Run it under -race.
func TestReproduceExperimentParallel(t *testing.T) {
	w := newWorld(t)
	w.mgr.Create(&Experiment{Name: "parallel"})
	var want []task.ID
	for i := 0; i < 6; i++ {
		red, nir := w.insertPair(t)
		tk, _, err := w.exec.Run(context.Background(), "ndvi_map", map[string][]object.OID{"red": {red}, "nir": {nir}}, task.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.mgr.AttachTask("parallel", tk.ID)
		want = append(want, tk.ID)
	}
	report, err := w.mgr.Reproduce(context.Background(), "parallel", task.RunOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.PerTask) != len(want) {
		t.Fatalf("report has %d tasks, want %d", len(report.PerTask), len(want))
	}
	for i, tr := range report.PerTask {
		if tr.Original != want[i] || !tr.Identical || tr.Err != "" {
			t.Errorf("entry %d = %+v, want task %d reproduced identically", i, tr, want[i])
		}
	}
	// A cancelled reproduction reports the cancellation, not a report.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.mgr.Reproduce(ctx, "parallel", task.RunOptions{Parallelism: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled reproduce err = %v", err)
	}
}

func TestReproduceSkipsExternalTasks(t *testing.T) {
	w := newWorld(t)
	red, _ := w.insertPair(t)
	w.mgr.Create(&Experiment{Name: "with-external"})
	// A second load task for red, committed as a session commits one.
	tasks := w.exec.StageExternal("data_load", nil, []object.OID{red}, "scene", task.RunOptions{})
	if _, err := w.exec.Apply(object.BatchOps{}, tasks); err != nil {
		t.Fatal(err)
	}
	w.mgr.AttachTask("with-external", tasks[0].ID)
	report, err := w.mgr.Reproduce(context.Background(), "with-external", task.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.PerTask[0].Err == "" {
		t.Error("external task should be reported as not re-runnable")
	}
}

func TestCompareExperiments(t *testing.T) {
	w := newWorld(t)
	red, nir := w.insertPair(t)
	w.mgr.Create(&Experiment{Name: "study-a", User: "alice"})
	w.mgr.Create(&Experiment{Name: "study-b", User: "bob"})

	tk, _, err := w.exec.Run(context.Background(), "ndvi_map", map[string][]object.OID{"red": {red}, "nir": {nir}}, task.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.mgr.AttachTask("study-a", tk.ID)

	onlyA, onlyB, err := w.mgr.Compare("study-a", "study-b")
	if err != nil {
		t.Fatal(err)
	}
	if len(onlyA) != 1 || onlyA[0] != "ndvi_map@v1" || len(onlyB) != 0 {
		t.Errorf("Compare = %v / %v", onlyA, onlyB)
	}
	if _, _, err := w.mgr.Compare("study-a", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("compare missing err = %v", err)
	}
}

func TestExperimentPersistence(t *testing.T) {
	w := newWorld(t)
	red, nir := w.insertPair(t)
	w.mgr.Create(&Experiment{Name: "persisted", User: "alice"})
	tk, _, _ := w.exec.Run(context.Background(), "ndvi_map", map[string][]object.OID{"red": {red}, "nir": {nir}}, task.RunOptions{})
	w.mgr.AttachTask("persisted", tk.ID)

	m2, err := OpenManager(w.st, w.exec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := m2.Get("persisted")
	if err != nil || len(e.Tasks) != 1 {
		t.Errorf("reload = %+v, %v", e, err)
	}
	if m2.Names()[0] != "persisted" {
		t.Errorf("Names = %v", m2.Names())
	}
}
