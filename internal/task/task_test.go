package task

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
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

const p20Source = `
DEFINE PROCESS unsupervised_classification (
  OUTPUT C20 landcover
  ARGUMENT ( SETOF bands landsat_tm )
  TEMPLATE {
    ASSERTIONS:
      card ( bands ) = 3;
      common ( bands.spatialextent );
      common ( bands.timestamp );
    MAPPINGS:
      C20.data = unsuperclassify ( composite ( bands.data ), 12 );
      C20.numclass = 12;
      C20.spatialextent = ANYOF bands.spatialextent;
      C20.timestamp = ANYOF bands.timestamp;
  }
)
`

const changeMapSource = `
DEFINE PROCESS change_map (
  OUTPUT out land_cover_changes
  ARGUMENT ( a landcover )
  ARGUMENT ( b landcover )
  TEMPLATE {
    ASSERTIONS:
      common ( a.spatialextent );
    MAPPINGS:
      out.data = img_subtract ( a.data, b.data );
      out.spatialextent = a.spatialextent;
      out.timestamp = b.timestamp;
  }
)
`

const lcdSource = `
DEFINE COMPOUND PROCESS land_change_detection (
  OUTPUT out land_cover_changes
  ARGUMENT ( SETOF tm1 landsat_tm )
  ARGUMENT ( SETOF tm2 landsat_tm )
  STEPS {
    lc1 = unsupervised_classification ( tm1 );
    lc2 = unsupervised_classification ( tm2 );
    out = change_map ( lc1, lc2 );
  }
)
`

type env struct {
	dir  string
	st   *storage.Store
	cat  *catalog.Catalog
	reg  *adt.Registry
	obj  *object.Store
	mgr  *process.Manager
	exec *Executor
}

func newEnv(t *testing.T) *env {
	t.Helper()
	return openEnv(t, t.TempDir(), true)
}

func openEnv(t *testing.T, dir string, cleanup bool) *env {
	t.Helper()
	st, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if cleanup {
		t.Cleanup(func() { st.Close() })
	}
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if !cat.Exists("landsat_tm") {
		defineClasses(t, cat)
	}
	reg := adt.NewStandardRegistry()
	obj, err := object.Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := process.OpenManager(st, cat, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Lookup("unsupervised_classification"); err != nil {
		for _, src := range []string{p20Source, changeMapSource, lcdSource} {
			if _, err := mgr.Define(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	exec, err := OpenExecutor(st, cat, reg, obj, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return &env{dir: dir, st: st, cat: cat, reg: reg, obj: obj, mgr: mgr, exec: exec}
}

func defineClasses(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	classes := []*catalog.Class{
		{
			Name: "landsat_tm", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{
				{Name: "band", Type: value.TypeString},
				{Name: "data", Type: value.TypeImage},
			},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
		{
			Name: "landcover", Kind: catalog.KindDerived, DerivedBy: "unsupervised_classification",
			Attrs: []catalog.Attr{
				{Name: "numclass", Type: value.TypeInt},
				{Name: "data", Type: value.TypeImage},
			},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
		{
			Name: "land_cover_changes", Kind: catalog.KindDerived, DerivedBy: "change_map",
			Attrs: []catalog.Attr{
				{Name: "data", Type: value.TypeImage},
			},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
	}
	for _, c := range classes {
		if err := cat.Define(c); err != nil {
			t.Fatal(err)
		}
	}
}

// insertScene stores n co-registered bands at the given date and returns
// their OIDs.
func insertScene(t *testing.T, e *env, n int, day sptemp.AbsTime, year int) []object.OID {
	t.Helper()
	l := raster.NewLandscape(77)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 10, Cols: 10, DayOfYear: 150, Year: year, Noise: 0.01}
	bands := []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR, raster.BandGreen}
	oids := make([]object.OID, 0, n)
	for i := 0; i < n; i++ {
		img, err := l.GenerateBand(spec, bands[i%len(bands)])
		if err != nil {
			t.Fatal(err)
		}
		oid, err := e.obj.Insert(&object.Object{
			Class: "landsat_tm",
			Attrs: map[string]value.Value{
				"band": value.String_(bands[i%len(bands)].String()),
				"data": value.Image{Img: img},
			},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 300, 300), day),
		})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	return oids
}

func TestRunRecordsTask(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	tk, reused, err := e.exec.Run(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first run should not be memoised")
	}
	if tk.Process != "unsupervised_classification" || tk.Version != 1 || tk.User != "alice" {
		t.Errorf("task = %+v", tk)
	}
	out, err := e.obj.Get(tk.Output)
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != "landcover" {
		t.Errorf("output class = %s", out.Class)
	}
	if out.Attrs["numclass"].(value.Int) != 12 {
		t.Errorf("numclass = %v", out.Attrs["numclass"])
	}
	// Lineage.
	prod, ok := e.exec.Producer(tk.Output)
	if !ok || prod.ID != tk.ID {
		t.Error("Producer lookup failed")
	}
	if _, ok := e.exec.Producer(scene[0]); ok {
		t.Error("base data has no producer")
	}
	cons := e.exec.Consumers(scene[0])
	if len(cons) != 1 || cons[0].ID != tk.ID {
		t.Errorf("Consumers = %v", cons)
	}
}

func TestMemoisation(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	in := map[string][]object.OID{"bands": scene}
	t1, _, err := e.exec.Run(context.Background(), "unsupervised_classification", in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t2, reused, err := e.exec.Run(context.Background(), "unsupervised_classification", in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reused || t2.ID != t1.ID {
		t.Error("identical instantiation should be memoised")
	}
	// NoMemo forces a fresh run with a new output.
	t3, reused, err := e.exec.Run(context.Background(), "unsupervised_classification", in, RunOptions{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if reused || t3.ID == t1.ID || t3.Output == t1.Output {
		t.Error("NoMemo should re-execute")
	}
	// Different input order is a different binding -> different task.
	swapped := map[string][]object.OID{"bands": {scene[1], scene[0], scene[2]}}
	t4, reused, err := e.exec.Run(context.Background(), "unsupervised_classification", swapped, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reused || t4.ID == t1.ID {
		t.Error("different input order is a distinct task")
	}
}

func TestRunFailuresAreClean(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 4, sptemp.Date(1986, 1, 15), 1986)
	// Assertion failure: card = 4.
	if _, _, err := e.exec.Run(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{}); !errors.Is(err, process.ErrAssertion) {
		t.Errorf("assertion err = %v", err)
	}
	// No task recorded.
	if len(e.exec.All()) != 0 {
		t.Error("failed run must not record a task")
	}
	// Unknown process.
	if _, _, err := e.exec.Run(context.Background(), "ghost", nil, RunOptions{}); !errors.Is(err, process.ErrProcessNotFound) {
		t.Errorf("unknown process err = %v", err)
	}
	// Missing input object.
	if _, _, err := e.exec.Run(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": {9999, 9998, 9997}}, RunOptions{}); !errors.Is(err, ErrExec) {
		t.Errorf("missing input err = %v", err)
	}
}

func TestRunCompoundLandChangeDetection(t *testing.T) {
	e := newEnv(t)
	scene86 := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	scene89 := insertScene(t, e, 3, sptemp.Date(1989, 1, 15), 1989)
	tasks, out, err := e.exec.RunCompound(context.Background(), "land_change_detection",
		map[string][]object.OID{"tm1": scene86, "tm2": scene89}, RunOptions{User: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	outObj, err := e.obj.Get(out)
	if err != nil {
		t.Fatal(err)
	}
	if outObj.Class != "land_cover_changes" {
		t.Errorf("output class = %s", outObj.Class)
	}
	// The final task consumed the two intermediate landcovers.
	final := tasks[2]
	if final.Process != "change_map" {
		t.Errorf("final = %+v", final)
	}
	// Ancestors of the output span both scenes and both landcovers.
	anc := lineage(out, func(o object.OID) []object.OID {
		var in []object.OID
		if t, ok := e.exec.Producer(o); ok {
			for _, oids := range t.Inputs {
				in = append(in, oids...)
			}
		}
		return in
	})
	if len(anc) != 8 { // 6 scenes + 2 landcovers
		t.Errorf("ancestors = %v", anc)
	}
	// Descendants of a base scene include the final output.
	desc := lineage(scene86[0], func(o object.OID) []object.OID {
		var outs []object.OID
		for _, t := range e.exec.Consumers(o) {
			outs = append(outs, t.Outputs()...)
		}
		return outs
	})
	if !desc[out] {
		t.Errorf("descendants of scene missing output: %v", desc)
	}
	// Re-running the compound reuses all three memoised steps.
	tasks2, out2, err := e.exec.RunCompound(context.Background(), "land_change_detection",
		map[string][]object.OID{"tm1": scene86, "tm2": scene89}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out2 != out {
		t.Error("memoised compound should return the same output object")
	}
	for i := range tasks2 {
		if tasks2[i].ID != tasks[i].ID {
			t.Error("compound steps should be memoised")
		}
	}
}

func TestRunCompoundBindingErrors(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	// Missing argument.
	if _, _, err := e.exec.RunCompound(context.Background(), "land_change_detection", map[string][]object.OID{"tm1": scene}, RunOptions{}); !errors.Is(err, ErrExec) {
		t.Errorf("missing arg err = %v", err)
	}
	// Unknown compound.
	if _, _, err := e.exec.RunCompound(context.Background(), "ghost", nil, RunOptions{}); !errors.Is(err, process.ErrProcessNotFound) {
		t.Errorf("unknown compound err = %v", err)
	}
}

func TestExplainRendersLineageTree(t *testing.T) {
	e := newEnv(t)
	scene86 := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	scene89 := insertScene(t, e, 3, sptemp.Date(1989, 1, 15), 1989)
	_, out, err := e.exec.RunCompound(context.Background(), "land_change_detection",
		map[string][]object.OID{"tm1": scene86, "tm2": scene89}, RunOptions{User: "carol"})
	if err != nil {
		t.Fatal(err)
	}
	text := e.exec.Explain(out)
	for _, want := range []string{"change_map", "unsupervised_classification", "base data", "by carol"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q in:\n%s", want, text)
		}
	}
	// Base object explanation is one line.
	base := e.exec.Explain(scene86[0])
	if !strings.Contains(base, "base data") {
		t.Errorf("base explain = %q", base)
	}
}

func TestReproduceMatchesOriginal(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	orig, _, err := e.exec.Run(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, same, err := e.exec.Reproduce(context.Background(), orig.ID, RunOptions{User: "referee"})
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Error("deterministic process should reproduce identically")
	}
	if fresh.ID == orig.ID || fresh.Output == orig.Output {
		t.Error("reproduction must create a fresh task and output")
	}
	if _, _, err := e.exec.Reproduce(context.Background(), 9999, RunOptions{}); !errors.Is(err, ErrTaskNotFound) {
		t.Errorf("missing task err = %v", err)
	}
}

func TestReproduceUsesRecordedVersion(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	orig, _, err := e.exec.Run(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Redefine the process (v2 with k=8). Reproduction must still use v1.
	v2 := strings.ReplaceAll(p20Source, "12", "8")
	if _, _, err := e.mgr.Redefine(v2); err != nil {
		t.Fatal(err)
	}
	fresh, same, err := e.exec.Reproduce(context.Background(), orig.ID, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Error("reproduction with recorded version should match")
	}
	if fresh.Version != 1 {
		t.Errorf("reproduction used version %d", fresh.Version)
	}
	// A fresh Run uses v2 and yields numclass 8.
	t2, _, err := e.exec.Run(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := e.obj.Get(t2.Output)
	if out.Attrs["numclass"].(value.Int) != 8 {
		t.Errorf("v2 numclass = %v", out.Attrs["numclass"])
	}
}

func TestTaskLogPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e := openEnv(t, dir, false)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	tk, _, err := e.exec.Run(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{User: "dave"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.st.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openEnv(t, dir, true)
	got, err := e2.exec.Get(tk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != "dave" || got.Output != tk.Output {
		t.Errorf("reloaded task = %+v", got)
	}
	// Memo survives: same run is still reused.
	t2, reused, err := e2.exec.Run(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reused || t2.ID != tk.ID {
		t.Error("memo must survive reopen")
	}
	// Lineage too.
	if _, ok := e2.exec.Producer(tk.Output); !ok {
		t.Error("lineage must survive reopen")
	}
}

func TestTwoScientistsScenario(t *testing.T) {
	// The §1 motivating scenario: subtract vs ratio of NDVI. Both outputs
	// live in the same class; only the recorded derivation tells them
	// apart.
	e := newEnv(t)
	defineNDVIWorld(t, e)

	scene88 := insertScene(t, e, 3, sptemp.Date(1988, 6, 15), 1988)
	scene89 := insertScene(t, e, 3, sptemp.Date(1989, 6, 15), 1989)

	nd88, _, err := e.exec.Run(context.Background(), "ndvi_map", map[string][]object.OID{"red": {scene88[0]}, "nir": {scene88[1]}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nd89, _, err := e.exec.Run(context.Background(), "ndvi_map", map[string][]object.OID{"red": {scene89[0]}, "nir": {scene89[1]}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := e.exec.Run(context.Background(), "veg_change_subtract", map[string][]object.OID{"recent": {nd89.Output}, "old": {nd88.Output}}, RunOptions{User: "scientist-1"})
	if err != nil {
		t.Fatal(err)
	}
	rat, _, err := e.exec.Run(context.Background(), "veg_change_ratio", map[string][]object.OID{"recent": {nd89.Output}, "old": {nd88.Output}}, RunOptions{User: "scientist-2"})
	if err != nil {
		t.Fatal(err)
	}
	// Same class, same extent, different derivation.
	so, _ := e.obj.Get(sub.Output)
	ro, _ := e.obj.Get(rat.Output)
	if so.Class != ro.Class {
		t.Fatal("both should land in veg_change")
	}
	p1, _ := e.exec.Producer(sub.Output)
	p2, _ := e.exec.Producer(rat.Output)
	if p1.Process == p2.Process {
		t.Error("derivations must be distinguishable")
	}
}

// defineNDVIWorld defines the ndvi/veg_change classes and processes used
// by the two-scientists scenario.
func defineNDVIWorld(t *testing.T, e *env) {
	t.Helper()
	classes := []*catalog.Class{
		{
			Name: "ndvi", Kind: catalog.KindDerived, DerivedBy: "ndvi_map",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
		{
			Name: "veg_change", Kind: catalog.KindDerived, DerivedBy: "veg_change_subtract",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
	}
	for _, c := range classes {
		if err := e.cat.Define(c); err != nil {
			t.Fatal(err)
		}
	}
	srcs := []string{`
DEFINE PROCESS ndvi_map (
  OUTPUT o ndvi
  ARGUMENT ( red landsat_tm )
  ARGUMENT ( nir landsat_tm )
  TEMPLATE {
    ASSERTIONS:
      common ( red.spatialextent );
    MAPPINGS:
      o.data = ndvi ( red.data, nir.data );
      o.spatialextent = red.spatialextent;
      o.timestamp = red.timestamp;
  }
)`, `
DEFINE PROCESS veg_change_subtract (
  OUTPUT o veg_change
  ARGUMENT ( recent ndvi )
  ARGUMENT ( old ndvi )
  TEMPLATE {
    MAPPINGS:
      o.data = img_subtract ( recent.data, old.data );
      o.spatialextent = recent.spatialextent;
      o.timestamp = recent.timestamp;
  }
)`, `
DEFINE PROCESS veg_change_ratio (
  OUTPUT o veg_change
  ARGUMENT ( recent ndvi )
  ARGUMENT ( old ndvi )
  TEMPLATE {
    MAPPINGS:
      o.data = img_ratio ( recent.data, old.data );
      o.spatialextent = recent.spatialextent;
      o.timestamp = recent.timestamp;
  }
)`}
	for _, src := range srcs {
		if _, err := e.mgr.Define(src); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoInvalidatedByOutputDelete is the regression test for memo and
// byOutput entries surviving object deletion: a memo hit must never
// return a task whose output OID no longer resolves.
func TestMemoInvalidatedByOutputDelete(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	in := map[string][]object.OID{"bands": scene}
	t1, _, err := e.exec.Run(context.Background(), "unsupervised_classification", in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the output directly through the object store (bypassing the
	// kernel facade, as an embedded user might).
	if err := e.obj.Delete(t1.Output); err != nil {
		t.Fatal(err)
	}
	t2, reused, err := e.exec.Run(context.Background(), "unsupervised_classification", in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("memo hit returned a task whose output was deleted")
	}
	if t2.Output == t1.Output {
		t.Fatalf("re-execution reused the deleted output OID %d", t1.Output)
	}
	if _, err := e.obj.Get(t2.Output); err != nil {
		t.Fatalf("fresh output should resolve: %v", err)
	}
	// The producer entry for the deleted output is gone too.
	if _, ok := e.exec.Producer(t1.Output); ok {
		t.Error("Producer still indexes the deleted output")
	}
	// The fresh task is memoised normally.
	t3, reused, err := e.exec.Run(context.Background(), "unsupervised_classification", in, RunOptions{})
	if err != nil || !reused || t3.ID != t2.ID {
		t.Fatalf("expected memo hit on fresh task: %v reused=%v", err, reused)
	}
}

// TestRecomputeTaskRefreshesInPlace re-executes a recorded task over the
// output's existing OID after an input changed.
func TestRecomputeTaskRefreshesInPlace(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	in := map[string][]object.OID{"bands": scene}
	t1, _, err := e.exec.Run(context.Background(), "unsupervised_classification", in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.obj.Get(t1.Output)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.exec.RecomputeTask(context.Background(), t1.ID, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if t2.Output != t1.Output {
		t.Fatalf("recompute changed the output OID: %d -> %d", t1.Output, t2.Output)
	}
	if t2.ID == t1.ID {
		t.Error("recompute should record a fresh task")
	}
	after, err := e.obj.Get(t2.Output)
	if err != nil {
		t.Fatal(err)
	}
	if before.Class != after.Class || len(before.Attrs) != len(after.Attrs) {
		t.Errorf("refreshed object shape changed: %+v vs %+v", before, after)
	}
	// The refresh task is now the producer and holds the memo entry.
	if prod, ok := e.exec.Producer(t1.Output); !ok || prod.ID != t2.ID {
		t.Errorf("producer after recompute = %+v, %v", prod, ok)
	}
	// External (version 0) derivations cannot be recomputed.
	ext := commitExternal(t, e, "data_load", nil, scene[0], RunOptions{})
	if _, err := e.exec.RecomputeTask(context.Background(), ext.ID, RunOptions{}); !errors.Is(err, ErrExec) {
		t.Errorf("recompute of external task = %v, want ErrExec", err)
	}
}

// TestRefreshRecordWidthFollowsMicros shows why the bytes a run of
// refreshes writes differ between runs of the same work: a refresh's task
// record is a delta against the task it recomputes, and it stores Micros,
// the derivation's wall time, as a zig-zag varint, one byte wide below
// 64 µs, two below 8,192 µs and three from there. Clock is set so each
// derivation takes the given time.
func TestRefreshRecordWidthFollowsMicros(t *testing.T) {
	defer func(c func() time.Time) { Clock = c }(Clock)
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	// The base task's own run time is fixed too: a delta leaves out micros
	// equal to the base's, so a base timed at one of the widths below would
	// shorten that refresh's record.
	Clock = func() time.Time { return time.Unix(0, 0) }
	orig, _, err := e.exec.Run(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	size := map[int64]int{}
	for _, us := range []int64{1, 63, 64, 8191, 8192, 1<<20 - 1} {
		reads := 0
		Clock = func() time.Time {
			reads++
			if reads%2 == 0 {
				return time.Unix(0, 0).Add(time.Duration(us) * time.Microsecond)
			}
			return time.Unix(0, 0)
		}
		refresh, err := e.exec.RecomputeTask(context.Background(), orig.ID, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if refresh.Micros != us || reads != 2 {
			t.Fatalf("a %d µs derivation recorded %d µs over %d clock reads", us, refresh.Micros, reads)
		}
		size[us] = len(appendTask(nil, refresh, orig))
	}
	for _, w := range []struct{ a, b int64 }{{1, 63}, {64, 8191}} {
		if size[w.a] != size[w.b] {
			t.Errorf("records of %d µs and %d µs: %d and %d bytes, want equal", w.a, w.b, size[w.a], size[w.b])
		}
	}
	for _, w := range []struct{ a, b int64 }{{63, 64}, {8191, 8192}} {
		if size[w.b] != size[w.a]+1 {
			t.Errorf("records of %d µs and %d µs: %d and %d bytes, want one byte more", w.a, w.b, size[w.a], size[w.b])
		}
	}
	if size[1<<20-1] != size[8192] {
		t.Errorf("records of 8192 µs and %d µs: %d and %d bytes, want equal", 1<<20-1, size[8192], size[1<<20-1])
	}
}

// TestReproduceStaleInputFlagged verifies the staleness guard on
// reproduction: a stale input means the recorded input state cannot be
// reproduced, so Reproduce must say so instead of silently re-running.
func TestReproduceStaleInputFlagged(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	in := map[string][]object.OID{"bands": scene}
	t1, _, err := e.exec.Run(context.Background(), "unsupervised_classification", in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stale := map[object.OID]bool{scene[1]: true}
	e.exec.Stale = func(oid object.OID) bool { return stale[oid] }
	if _, _, err := e.exec.Reproduce(context.Background(), t1.ID, RunOptions{}); !errors.Is(err, ErrStaleInput) {
		t.Fatalf("reproduce with stale input = %v, want ErrStaleInput", err)
	}
	// Fresh inputs reproduce normally again.
	stale = map[object.OID]bool{}
	if _, same, err := e.exec.Reproduce(context.Background(), t1.ID, RunOptions{}); err != nil || !same {
		t.Fatalf("reproduce after refresh = same=%v, %v", same, err)
	}
}

// TestReproduceRefusesExternalTask: a load has no process to re-run, so
// Reproduce refuses it as an execution error that names the external
// derivation, the way RecomputeTask does.
func TestReproduceRefusesExternalTask(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 1, sptemp.Date(1986, 1, 15), 1986)
	ext := commitExternal(t, e, "data_load", nil, scene[0], RunOptions{})
	_, _, err := e.exec.Reproduce(context.Background(), ext.ID, RunOptions{})
	if !errors.Is(err, ErrExec) || !strings.Contains(err.Error(), `external derivation "data_load"`) {
		t.Errorf("reproduce of external task = %v, want ErrExec naming data_load", err)
	}
}

// lineage walks next transitively from oid and returns every OID
// reached, oid itself excluded.
func lineage(oid object.OID, next func(object.OID) []object.OID) map[object.OID]bool {
	seen := map[object.OID]bool{}
	var walk func(object.OID)
	walk = func(o object.OID) {
		for _, n := range next(o) {
			if !seen[n] {
				seen[n] = true
				walk(n)
			}
		}
	}
	walk(oid)
	return seen
}
