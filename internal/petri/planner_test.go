package petri

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/process"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

type world struct {
	st  *storage.Store
	cat *catalog.Catalog
	obj *object.Store
	mgr *process.Manager
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
	classes := []*catalog.Class{
		{
			Name: "landsat_tm", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
		{
			Name: "landcover", Kind: catalog.KindDerived, DerivedBy: "classify",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
		{
			Name: "veg_change", Kind: catalog.KindDerived, DerivedBy: "change_map",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
		{
			Name: "orphan", Kind: catalog.KindDerived, DerivedBy: "never_defined",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
	}
	for _, c := range classes {
		if err := cat.Define(c); err != nil {
			t.Fatal(err)
		}
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
	srcs := []string{`
DEFINE PROCESS classify (
  OUTPUT o landcover
  ARGUMENT ( SETOF bands landsat_tm )
  TEMPLATE {
    ASSERTIONS:
      card ( bands ) = 3;
      common ( bands.spatialextent );
      common ( bands.timestamp );
    MAPPINGS:
      o.data = unsuperclassify ( composite ( bands.data ), 6 );
      o.spatialextent = ANYOF bands.spatialextent;
      o.timestamp = ANYOF bands.timestamp;
  }
)`, `
DEFINE PROCESS change_map (
  OUTPUT o veg_change
  ARGUMENT ( a landcover )
  ARGUMENT ( b landcover )
  TEMPLATE {
    MAPPINGS:
      o.data = img_subtract ( a.data, b.data );
      o.spatialextent = a.spatialextent;
      o.timestamp = b.timestamp;
  }
)`}
	for _, src := range srcs {
		if _, err := mgr.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	return &world{st: st, cat: cat, obj: obj, mgr: mgr}
}

func (w *world) insertScene(t *testing.T, n int, day sptemp.AbsTime, year int) []object.OID {
	t.Helper()
	l := raster.NewLandscape(5)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 8, Cols: 8, DayOfYear: 150, Year: year, Noise: 0.01}
	bands := []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR}
	var oids []object.OID
	for i := 0; i < n; i++ {
		img, err := l.GenerateBand(spec, bands[i%3])
		if err != nil {
			t.Fatal(err)
		}
		oid, err := w.obj.Insert(&object.Object{
			Class:  "landsat_tm",
			Attrs:  map[string]value.Value{"data": value.Image{Img: img}},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 240, 240), day),
		})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	return oids
}

func (w *world) planner() *Planner {
	return &Planner{Cat: w.cat, Mgr: w.mgr, Obj: w.obj}
}

func anyPred() sptemp.Extent {
	return sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}
}

func TestBuildNetFromSchema(t *testing.T) {
	w := newWorld(t)
	n, err := BuildNet(w.cat, w.mgr)
	if err != nil {
		t.Fatal(err)
	}
	trs := n.TransitionsInto("landcover")
	if len(trs) != 1 || trs[0].In[0].Weight != 3 {
		t.Errorf("classify transition = %+v", trs)
	}
	if !n.CanDerive(Marking{"landsat_tm": 3, "landcover": 1}, "veg_change") {
		t.Error("veg_change should be derivable in the schema net")
	}
}

func TestCurrentMarking(t *testing.T) {
	w := newWorld(t)
	w.insertScene(t, 3, sptemp.Date(1986, 1, 15), 1986)
	m, err := CurrentMarking(w.cat, w.obj, anyPred())
	if err != nil {
		t.Fatal(err)
	}
	if m["landsat_tm"] != 3 || m["landcover"] != 0 {
		t.Errorf("marking = %v", m)
	}
}

func TestPlanDirectRetrieval(t *testing.T) {
	w := newWorld(t)
	oids := w.insertScene(t, 3, sptemp.Date(1986, 1, 15), 1986)
	plan, err := w.planner().Plan(context.Background(), "landsat_tm", anyPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 || len(plan.Existing) != 3 {
		t.Errorf("plan = %+v", plan)
	}
	if plan.Existing[0] != oids[0] {
		t.Errorf("existing = %v", plan.Existing)
	}
}

func TestPlanSingleDerivation(t *testing.T) {
	w := newWorld(t)
	w.insertScene(t, 3, sptemp.Date(1986, 1, 15), 1986)
	plan, err := w.planner().Plan(context.Background(), "landcover", anyPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 {
		t.Fatalf("plan = %s", plan)
	}
	s := plan.Steps[0]
	if s.Process != "classify" || len(s.Inputs["bands"]) != 3 {
		t.Errorf("step = %+v", s)
	}
	for _, ref := range s.Inputs["bands"] {
		if ref.FromStep {
			t.Error("band inputs should be stored objects")
		}
	}
	if !strings.Contains(plan.String(), "classify v1 -> landcover") {
		t.Errorf("plan string = %s", plan)
	}
}

func TestPlanChainedDerivation(t *testing.T) {
	// veg_change needs two landcovers; none stored, so the planner must
	// chain: classify(1986 scenes), classify(1989 scenes), change_map.
	w := newWorld(t)
	w.insertScene(t, 3, sptemp.Date(1986, 1, 15), 1986)
	w.insertScene(t, 3, sptemp.Date(1989, 1, 15), 1989)
	plan, err := w.planner().Plan(context.Background(), "veg_change", anyPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("plan:\n%s", plan)
	}
	final := plan.Steps[2]
	if final.Process != "change_map" {
		t.Errorf("final step = %+v", final)
	}
	// Both change_map inputs come from earlier steps.
	for _, arg := range []string{"a", "b"} {
		refs := final.Inputs[arg]
		if len(refs) != 1 || !refs[0].FromStep {
			t.Errorf("change_map %s = %+v", arg, refs)
		}
	}
	// The two classify steps must not pick the same scene group: their
	// band OIDs must differ (guard compatibility separates 1986 from 1989).
	b0 := plan.Steps[0].Inputs["bands"]
	b1 := plan.Steps[1].Inputs["bands"]
	same := true
	for i := range b0 {
		if b0[i].OID != b1[i].OID {
			same = false
		}
	}
	if same {
		t.Error("the two classifications used identical inputs; change would be zero")
	}
}

func TestPlanFailsWithoutBaseData(t *testing.T) {
	w := newWorld(t)
	if _, err := w.planner().Plan(context.Background(), "landcover", anyPred()); !errors.Is(err, ErrNoPlan) {
		t.Errorf("plan err = %v", err)
	}
	// Two scenes are below the card(bands)=3 threshold.
	w.insertScene(t, 2, sptemp.Date(1986, 1, 15), 1986)
	if _, err := w.planner().Plan(context.Background(), "landcover", anyPred()); !errors.Is(err, ErrNoPlan) {
		t.Errorf("undercard plan err = %v", err)
	}
}

func TestPlanFailsForOrphanClass(t *testing.T) {
	w := newWorld(t)
	w.insertScene(t, 3, sptemp.Date(1986, 1, 15), 1986)
	if _, err := w.planner().Plan(context.Background(), "orphan", anyPred()); !errors.Is(err, ErrNoPlan) {
		t.Errorf("orphan plan err = %v", err)
	}
}

func TestPlanGuardsRejectIncompatibleGroups(t *testing.T) {
	// Three scenes at three far-apart dates: no guard-compatible group of
	// 3 exists, so planning landcover fails even though counts suffice.
	w := newWorld(t)
	w.insertScene(t, 1, sptemp.Date(1986, 1, 15), 1986)
	w.insertScene(t, 1, sptemp.Date(1987, 6, 15), 1987)
	w.insertScene(t, 1, sptemp.Date(1989, 11, 15), 1989)
	if _, err := w.planner().Plan(context.Background(), "landcover", anyPred()); !errors.Is(err, ErrNoPlan) {
		t.Errorf("incompatible group plan err = %v", err)
	}
	// The abstract net analysis would say "derivable" (3 tokens) — the
	// concrete planner is stricter because tokens carry extents.
	n, _ := BuildNet(w.cat, w.mgr)
	m, _ := CurrentMarking(w.cat, w.obj, anyPred())
	if !n.CanDerive(m, "landcover") {
		t.Error("abstract analysis should be optimistic here")
	}
}

func TestPlanSpatialPredicate(t *testing.T) {
	w := newWorld(t)
	w.insertScene(t, 3, sptemp.Date(1986, 1, 15), 1986)
	// Predicate disjoint from the stored scenes: nothing to plan from.
	far := sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(100000, 100000, 100100, 100100))
	if _, err := w.planner().Plan(context.Background(), "landcover", far); !errors.Is(err, ErrNoPlan) {
		t.Errorf("disjoint predicate err = %v", err)
	}
	// Overlapping predicate works.
	near := sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 50, 50))
	plan, err := w.planner().Plan(context.Background(), "landcover", near)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 {
		t.Errorf("plan = %s", plan)
	}
}

// TestPlanSkipsStaleObjects: stale inputs disqualify plan reuse — a stale
// target is re-derived from fresh base data, and stale base objects never
// bind as plan inputs.
func TestPlanSkipsStaleObjects(t *testing.T) {
	w := newWorld(t)
	scene := w.insertScene(t, 3, sptemp.Date(1986, 1, 15), 1986)
	pl := w.planner()

	// Materialise a landcover so retrieval would normally satisfy the
	// target directly.
	plan, err := pl.Plan(context.Background(), "landcover", anyPred())
	if err != nil || len(plan.Steps) != 1 {
		t.Fatalf("seed plan = %+v, %v", plan, err)
	}
	img := raster.MustNew(4, 4, raster.PixFloat4)
	lc, err := w.obj.Insert(&object.Object{
		Class:  "landcover",
		Attrs:  map[string]value.Value{"data": value.Image{Img: img}},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 240, 240), sptemp.Date(1986, 1, 15)),
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err = pl.Plan(context.Background(), "landcover", anyPred())
	if err != nil || len(plan.Existing) != 1 || plan.Existing[0] != lc {
		t.Fatalf("plan with stored landcover = %+v, %v", plan, err)
	}

	// Mark the landcover stale: the planner must re-derive instead of
	// retrieving it.
	stale := map[object.OID]bool{lc: true}
	pl.Stale = func(oid object.OID) bool { return stale[oid] }
	plan, err = pl.Plan(context.Background(), "landcover", anyPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Existing) != 0 || len(plan.Steps) != 1 {
		t.Fatalf("plan over stale target = %+v", plan)
	}

	// Mark a base band stale too: it must not bind as an input, and with
	// only two fresh bands the classify guard (card = 3) cannot be met.
	stale[scene[0]] = true
	if _, err := pl.Plan(context.Background(), "landcover", anyPred()); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("plan with stale base = %v, want ErrNoPlan", err)
	}
}

// TestPlanReadsNoImage holds the planner to reading extents only: with
// every image blob deleted after the scenes are stored, Plan returns the
// plan it returned before, and the one the planner gave when it loaded
// every candidate band whole.
func TestPlanReadsNoImage(t *testing.T) {
	w := newWorld(t)
	w.insertScene(t, 3, sptemp.Date(1989, 1, 15), 1989)
	w.insertScene(t, 3, sptemp.Date(1986, 1, 15), 1986)
	pl := w.planner()
	before, err := pl.Plan(context.Background(), "veg_change", anyPred())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := w.st.Blobs().IDs()
	if err != nil || len(ids) != 6 {
		t.Fatalf("blobs %v, %v; want the 6 bands'", ids, err)
	}
	for _, id := range ids {
		if err := w.st.Blobs().Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.obj.Get(1); err == nil {
		t.Fatal("Get of a band succeeds with its image deleted")
	}
	after, err := pl.Plan(context.Background(), "veg_change", anyPred())
	if err != nil {
		t.Fatalf("Plan with the images deleted: %v", err)
	}
	const want = `plan for veg_change:
  step 0: classify v1 -> landcover (bands=#4,#5,#6)
  step 1: classify v1 -> landcover (bands=#1,#2,#3)
  step 2: change_map v1 -> veg_change (a=step0, b=step1)
`
	if before.String() != want || after.String() != want {
		t.Errorf("plan before deleting the images:\n%s\nafter:\n%s\nwant:\n%s", before, after, want)
	}
}
