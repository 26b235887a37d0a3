package process

import (
	"errors"
	"strings"
	"testing"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

// env bundles the substrate a process test needs.
type env struct {
	st  *storage.Store
	cat *catalog.Catalog
	reg *adt.Registry
	obj *object.Store
	mgr *Manager
}

func newEnv(t testing.TB) *env {
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
	defineClasses(t, cat)
	reg := adt.NewStandardRegistry()
	obj, err := object.Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := OpenManager(st, cat, reg)
	if err != nil {
		t.Fatal(err)
	}
	return &env{st: st, cat: cat, reg: reg, obj: obj, mgr: mgr}
}

func defineClasses(t testing.TB, cat *catalog.Catalog) {
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
			Name: "landcover", Kind: catalog.KindDerived, DerivedBy: "pending",
			Attrs: []catalog.Attr{
				{Name: "numclass", Type: value.TypeInt},
				{Name: "data", Type: value.TypeImage},
			},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
		{
			Name: "land_cover_changes", Kind: catalog.KindDerived, DerivedBy: "pending",
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

// sceneObjects builds n co-registered landsat_tm objects at the same
// instant.
func sceneObjects(t *testing.T, e *env, n int, day sptemp.AbsTime) []*object.Object {
	t.Helper()
	l := raster.NewLandscape(31)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 10, Cols: 10, DayOfYear: 150, Year: 1986, Noise: 0.01}
	bands := []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR, raster.BandGreen}
	out := make([]*object.Object, 0, n)
	for i := 0; i < n; i++ {
		img, err := l.GenerateBand(spec, bands[i%len(bands)])
		if err != nil {
			t.Fatal(err)
		}
		o := &object.Object{
			Class: "landsat_tm",
			Attrs: map[string]value.Value{
				"band": value.String_(bands[i%len(bands)].String()),
				"data": value.Image{Img: img},
			},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 300, 300), day),
		}
		if _, err := e.obj.Insert(o); err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
	}
	return out
}

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

func TestCheckP20Passes(t *testing.T) {
	e := newEnv(t)
	pr, _, err := Parse(p20Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(pr, e.cat, e.reg); err != nil {
		t.Fatalf("P20 should type-check: %v", err)
	}
}

func TestCheckRejections(t *testing.T) {
	e := newEnv(t)
	mutate := func(find, repl string) string {
		return strings.Replace(p20Source, find, repl, 1)
	}
	cases := map[string]string{
		"unknown output class":   mutate("landcover", "ghost_class"),
		"unknown argument class": mutate("landsat_tm", "ghost_class"),
		"unknown operator":       mutate("unsuperclassify", "no_such_op"),
		"unknown attribute":      mutate("C20.numclass", "C20.bogus"),
		"unmapped attribute":     mutate("C20.numclass = 12;", ""),
		"missing extent mapping": mutate("C20.timestamp = ANYOF bands.timestamp;", ""),
		"type mismatch":          mutate("C20.numclass = 12", `C20.numclass = "twelve"`),
		"double mapping":         mutate("C20.numclass = 12;", "C20.numclass = 12; C20.numclass = 13;"),
		"bad assertion type":     mutate("card ( bands ) = 3;", "anyof ( bands.data );"),
		"bad common type":        mutate("common ( bands.spatialextent );", "common ( bands.data );"),
	}
	for name, src := range cases {
		pr, _, err := Parse(src)
		if err != nil {
			continue // some mutations fail at parse; that's also a rejection
		}
		if err := Check(pr, e.cat, e.reg); !errors.Is(err, ErrCheck) {
			t.Errorf("%s: Check err = %v, want ErrCheck", name, err)
		}
	}
	// Output class must be derived, not base.
	src := strings.Replace(changeMapSource, "land_cover_changes", "landsat_tm", 1)
	pr, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(pr, e.cat, e.reg); !errors.Is(err, ErrCheck) {
		t.Errorf("base output class err = %v", err)
	}
}

func TestBindValidation(t *testing.T) {
	e := newEnv(t)
	pr, _, err := Parse(p20Source)
	if err != nil {
		t.Fatal(err)
	}
	day := sptemp.Date(1986, 1, 15)
	objs := sceneObjects(t, e, 3, day)

	// Happy path.
	if _, err := pr.Bind(map[string][]*object.Object{"bands": objs}); err != nil {
		t.Fatalf("bind should succeed: %v", err)
	}
	// Too few objects (MinCard=3).
	if _, err := pr.Bind(map[string][]*object.Object{"bands": objs[:2]}); !errors.Is(err, ErrBind) {
		t.Errorf("undercard err = %v", err)
	}
	// Missing argument.
	if _, err := pr.Bind(map[string][]*object.Object{}); !errors.Is(err, ErrBind) {
		t.Errorf("missing arg err = %v", err)
	}
	// Unknown argument name.
	if _, err := pr.Bind(map[string][]*object.Object{"bands": objs, "extra": objs}); !errors.Is(err, ErrBind) {
		t.Errorf("extra arg err = %v", err)
	}
	// Wrong class.
	wrong := &object.Object{Class: "landcover"}
	if _, err := pr.Bind(map[string][]*object.Object{"bands": {wrong, wrong, wrong}}); !errors.Is(err, ErrBind) {
		t.Errorf("wrong class err = %v", err)
	}
}

func TestAssertionsAndMappingsEndToEnd(t *testing.T) {
	e := newEnv(t)
	pr, _, err := Parse(p20Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(pr, e.cat, e.reg); err != nil {
		t.Fatal(err)
	}
	day := sptemp.Date(1986, 1, 15)
	objs := sceneObjects(t, e, 3, day)
	b, err := pr.Bind(map[string][]*object.Object{"bands": objs})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckAssertions(e.reg); err != nil {
		t.Fatalf("assertions should pass: %v", err)
	}
	outClass, _ := e.cat.Class("landcover")
	attrs, ext, err := b.EvalMappings(e.reg, outClass)
	if err != nil {
		t.Fatal(err)
	}
	if attrs["numclass"].(value.Int) != 12 {
		t.Errorf("numclass = %v", attrs["numclass"])
	}
	img, err := value.AsImage(attrs["data"])
	if err != nil {
		t.Fatal(err)
	}
	if st := img.Stats(); st.Max > 11 || st.Min < 0 {
		t.Errorf("classification codes out of range: %+v", st)
	}
	if !ext.HasTime || ext.TimeIv.Start != day {
		t.Errorf("extent time = %v", ext.TimeIv)
	}
	if ext.Space.IsEmpty() {
		t.Error("extent space empty")
	}
	// InputOIDs for the task record.
	oids := b.InputOIDs()
	if len(oids["bands"]) != 3 {
		t.Errorf("InputOIDs = %v", oids)
	}
}

func TestAssertionFailures(t *testing.T) {
	e := newEnv(t)
	pr, _, err := Parse(p20Source)
	if err != nil {
		t.Fatal(err)
	}
	day := sptemp.Date(1986, 1, 15)

	// card(bands) = 3 fails with 4 objects.
	objs4 := sceneObjects(t, e, 4, day)
	b, err := pr.Bind(map[string][]*object.Object{"bands": objs4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckAssertions(e.reg); !errors.Is(err, ErrAssertion) {
		t.Errorf("card failure err = %v", err)
	}

	// Disjoint spatial extents fail common().
	objs := sceneObjects(t, e, 2, day)
	far := sceneObjects(t, e, 1, day)
	far[0].Extent.Space = sptemp.NewBox(10000, 10000, 10300, 10300)
	b, err = pr.Bind(map[string][]*object.Object{"bands": append(objs, far[0])})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckAssertions(e.reg); !errors.Is(err, ErrAssertion) {
		t.Errorf("disjoint extent err = %v", err)
	}

	// Timestamps a year apart fail common(bands.timestamp).
	mixed := sceneObjects(t, e, 2, day)
	late := sceneObjects(t, e, 1, sptemp.Date(1987, 1, 15))
	b, err = pr.Bind(map[string][]*object.Object{"bands": append(mixed, late[0])})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckAssertions(e.reg); !errors.Is(err, ErrAssertion) {
		t.Errorf("time mismatch err = %v", err)
	}
}

func TestManagerDefineLookupVersions(t *testing.T) {
	e := newEnv(t)
	name, err := e.mgr.Define(p20Source)
	if err != nil {
		t.Fatal(err)
	}
	if name != "unsupervised_classification" {
		t.Errorf("name = %q", name)
	}
	// Duplicate define fails.
	if _, err := e.mgr.Define(p20Source); !errors.Is(err, ErrProcessExists) {
		t.Errorf("dup define err = %v", err)
	}
	// The output class is linked (landcover had DerivedBy="pending", so it
	// stays; define a fresh class to see the link established).
	pr, err := e.mgr.Lookup(name)
	if err != nil || pr.Version != 1 {
		t.Fatalf("lookup: %+v, %v", pr, err)
	}
	// Redefine creates v2, keeps v1.
	v2src := strings.Replace(p20Source, ", 12", ", 8", 1)
	v2src = strings.Replace(v2src, "C20.numclass = 12", "C20.numclass = 8", 1)
	_, ver, err := e.mgr.Redefine(v2src)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Errorf("version = %d", ver)
	}
	latest, _ := e.mgr.Lookup(name)
	if latest.Version != 2 {
		t.Errorf("latest version = %d", latest.Version)
	}
	old, err := e.mgr.LookupVersion(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if oldMap, _ := old.Mapping("numclass"); oldMap.String() != "12" {
		t.Errorf("v1 mapping = %s", oldMap)
	}
	if vs := e.mgr.Versions(name); len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Errorf("Versions = %v", vs)
	}
	// Redefining an unknown process fails.
	ghost := strings.Replace(p20Source, "unsupervised_classification", "ghost_process", 1)
	if _, _, err := e.mgr.Redefine(ghost); !errors.Is(err, ErrProcessNotFound) {
		t.Errorf("redefine ghost err = %v", err)
	}
}

func TestManagerCompoundAndExpand(t *testing.T) {
	e := newEnv(t)
	if _, err := e.mgr.Define(p20Source); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.Define(changeMapSource); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.Define(lcdSource); err != nil {
		t.Fatal(err)
	}
	if !e.mgr.IsCompound("land_change_detection") || e.mgr.IsCompound("change_map") {
		t.Error("IsCompound wrong")
	}
	steps, output, err := e.mgr.Expand("land_change_detection")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %+v", steps)
	}
	if output != "out" {
		t.Errorf("output = %q", output)
	}
	if steps[2].Process != "change_map" || steps[2].Args[0] != "lc1" || steps[2].Args[1] != "lc2" {
		t.Errorf("final step = %+v", steps[2])
	}
	// Expanding a primitive fails.
	if _, _, err := e.mgr.Expand("change_map"); !errors.Is(err, ErrProcessNotFound) {
		t.Errorf("expand primitive err = %v", err)
	}
}

func TestManagerNestedCompoundExpansion(t *testing.T) {
	e := newEnv(t)
	if _, err := e.mgr.Define(p20Source); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.Define(changeMapSource); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.Define(lcdSource); err != nil {
		t.Fatal(err)
	}
	// A compound wrapping the compound.
	nested := `
DEFINE COMPOUND PROCESS study (
  OUTPUT res land_cover_changes
  ARGUMENT ( SETOF s1 landsat_tm )
  ARGUMENT ( SETOF s2 landsat_tm )
  STEPS {
    res = land_change_detection ( s1, s2 );
  }
)
`
	if _, err := e.mgr.Define(nested); err != nil {
		t.Fatal(err)
	}
	steps, output, err := e.mgr.Expand("study")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("nested expansion steps = %+v", steps)
	}
	if output != "res/out" {
		t.Errorf("nested output = %q", output)
	}
	// All steps are primitive.
	for _, s := range steps {
		if e.mgr.IsCompound(s.Process) {
			t.Errorf("step %s still compound", s.Process)
		}
	}
	// Inner args resolve to outer names.
	if steps[0].Args[0] != "s1" {
		t.Errorf("inner arg binding = %+v", steps[0])
	}
}

func TestManagerCompoundCheckErrors(t *testing.T) {
	e := newEnv(t)
	if _, err := e.mgr.Define(p20Source); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"unknown step process": strings.Replace(lcdSource, "change_map", "nope_proc", 1),
		"unknown arg":          strings.Replace(lcdSource, "( tm1 );", "( ghost );", 1),
		"class mismatch":       strings.Replace(lcdSource, "out = change_map ( lc1, lc2 );", "out = unsupervised_classification ( tm1 );", 1),
	}
	for name, src := range cases {
		if _, err := e.mgr.Define(src); err == nil {
			t.Errorf("%s: should fail", name)
		}
	}
}

func TestManagerPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := catalog.Open(st)
	defineClasses(t, cat)
	reg := adt.NewStandardRegistry()
	mgr, err := OpenManager(st, cat, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Define(p20Source); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Define(changeMapSource); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Define(lcdSource); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cat2, _ := catalog.Open(st2)
	mgr2, err := OpenManager(st2, cat2, adt.NewStandardRegistry())
	if err != nil {
		t.Fatal(err)
	}
	names := mgr2.Names()
	if len(names) != 3 {
		t.Fatalf("Names after reopen = %v", names)
	}
	if _, err := mgr2.Lookup("unsupervised_classification"); err != nil {
		t.Error(err)
	}
	steps, _, err := mgr2.Expand("land_change_detection")
	if err != nil || len(steps) != 3 {
		t.Errorf("expand after reopen: %v, %v", steps, err)
	}
}

func TestProcessesProducing(t *testing.T) {
	e := newEnv(t)
	e.mgr.Define(p20Source)
	e.mgr.Define(changeMapSource)
	prs := e.mgr.ProcessesProducing("landcover")
	if len(prs) != 1 || prs[0].Name != "unsupervised_classification" {
		t.Errorf("ProcessesProducing(landcover) = %v", prs)
	}
	if prs := e.mgr.ProcessesProducing("landsat_tm"); len(prs) != 0 {
		t.Errorf("base class should have no producers: %v", prs)
	}
}
