package catalog

import (
	"errors"
	"reflect"
	"testing"

	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

func testStore(t *testing.T) *storage.Store {
	t.Helper()
	st, err := storage.Open(t.TempDir(), storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// landcoverClass reproduces the paper's CLASS landcover definition.
func landcoverClass() *Class {
	return &Class{
		Name: "landcover",
		Kind: KindDerived,
		Attrs: []Attr{
			{Name: "area", Type: value.TypeString, Doc: "area name"},
			{Name: "cell_x", Type: value.TypeFloat, Doc: "pixel size in x"},
			{Name: "cell_y", Type: value.TypeFloat, Doc: "pixel size in y"},
			{Name: "resolution", Type: value.TypeFloat},
			{Name: "numclass", Type: value.TypeInt},
			{Name: "data", Type: value.TypeImage, Doc: "image data type"},
		},
		Frame:       sptemp.DefaultFrame,
		HasSpatial:  true,
		HasTemporal: true,
		DerivedBy:   "unsupervised_classification",
		Doc:         "Land cover",
	}
}

func TestDefineAndLookup(t *testing.T) {
	c, err := Open(testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Define(landcoverClass()); err != nil {
		t.Fatal(err)
	}
	got, err := c.Class("landcover")
	if err != nil {
		t.Fatal(err)
	}
	if got.Doc != "Land cover" || len(got.Attrs) != 6 {
		t.Errorf("lookup = %+v", got)
	}
	if !c.Exists("landcover") || c.Exists("ghost") {
		t.Error("Exists wrong")
	}
	if _, err := c.Class("ghost"); !errors.Is(err, ErrClassNotFound) {
		t.Errorf("missing class err = %v", err)
	}
	// No overwrite.
	if err := c.Define(landcoverClass()); !errors.Is(err, ErrClassExists) {
		t.Errorf("duplicate define err = %v", err)
	}
}

func TestDefinitionValidation(t *testing.T) {
	c, _ := Open(testStore(t))
	cases := []struct {
		name string
		mod  func(*Class)
	}{
		{"bad name", func(cl *Class) { cl.Name = "9bad" }},
		{"bad kind", func(cl *Class) { cl.Kind = "weird" }},
		{"derived without process", func(cl *Class) { cl.DerivedBy = "" }},
		{"bad attr name", func(cl *Class) { cl.Attrs[0].Name = "has space" }},
		{"dup attr", func(cl *Class) { cl.Attrs[1].Name = cl.Attrs[0].Name }},
		{"bad attr type", func(cl *Class) { cl.Attrs[0].Type = "blob" }},
		{"extent collision", func(cl *Class) { cl.Attrs[0].Name = "timestamp" }},
		{"bad frame", func(cl *Class) { cl.Frame.System = "mars" }},
	}
	for _, tc := range cases {
		cl := landcoverClass()
		tc.mod(cl)
		if err := c.Define(cl); err == nil {
			t.Errorf("%s: should fail validation", tc.name)
		}
	}
	// Base class with DerivedBy fails.
	cl := landcoverClass()
	cl.Kind = KindBase
	if err := c.Define(cl); err == nil {
		t.Error("base class with DERIVED BY should fail")
	}
}

func TestRetrievalFunctions(t *testing.T) {
	cl := landcoverClass()
	fns := cl.RetrievalFunctions()
	want := []string{"area", "cell_x", "cell_y", "data", "numclass", "resolution", "spatialextent", "timestamp"}
	if !reflect.DeepEqual(fns, want) {
		t.Errorf("RetrievalFunctions = %v, want %v", fns, want)
	}
	if a, ok := cl.Attr("numclass"); !ok || a.Type != value.TypeInt {
		t.Error("Attr lookup failed")
	}
	if _, ok := cl.Attr("nope"); ok {
		t.Error("missing attr should not be found")
	}
}

func TestCatalogPersistence(t *testing.T) {
	st := testStore(t)
	c, _ := Open(st)
	if err := c.Define(landcoverClass()); err != nil {
		t.Fatal(err)
	}
	base := &Class{
		Name: "landsat_tm", Kind: KindBase,
		Attrs:       []Attr{{Name: "data", Type: value.TypeImage}},
		Frame:       sptemp.DefaultFrame,
		HasSpatial:  true,
		HasTemporal: true,
	}
	if err := c.Define(base); err != nil {
		t.Fatal(err)
	}
	// Reopen the catalog over the same store.
	c2, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c2.Names(), []string{"landcover", "landsat_tm"}) {
		t.Errorf("Names after reload = %v", c2.Names())
	}
	got, err := c2.Class("landcover")
	if err != nil || got.DerivedBy != "unsupervised_classification" {
		t.Errorf("reload lost data: %+v, %v", got, err)
	}
}

func TestSetDerivedBy(t *testing.T) {
	c, _ := Open(testStore(t))
	pending := landcoverClass()
	pending.Name = "ndvi_map"
	pending.DerivedBy = "pending" // placeholder then re-link
	if err := c.Define(pending); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDerivedBy("ndvi_map", "pending"); err != nil {
		t.Fatal(err) // idempotent same-link
	}
	if err := c.SetDerivedBy("ndvi_map", "other_process"); err == nil {
		t.Error("re-linking to a different process must fail")
	}
	if err := c.SetDerivedBy("ghost", "p"); !errors.Is(err, ErrClassNotFound) {
		t.Errorf("missing class err = %v", err)
	}
	base := &Class{Name: "rawbase", Kind: KindBase, Frame: sptemp.DefaultFrame}
	c.Define(base)
	if err := c.SetDerivedBy("rawbase", "p"); err == nil {
		t.Error("base class cannot be given a derivation")
	}
}

func TestClassCopyIsolation(t *testing.T) {
	c, _ := Open(testStore(t))
	c.Define(landcoverClass())
	got, _ := c.Class("landcover")
	got.Doc = "mutated"
	again, _ := c.Class("landcover")
	if again.Doc != "Land cover" {
		t.Error("Class returned aliased definition")
	}
}
