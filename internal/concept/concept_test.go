package concept

import (
	"errors"
	"reflect"
	"testing"

	"gaea/internal/catalog"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

func newManager(t *testing.T) (*Manager, *catalog.Catalog, *storage.Store) {
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
	// Classes C2..C5 of Figure 2 plus NDVI members.
	for _, name := range []string{"c2", "c3", "c4", "c5", "c6", "c7", "c8", "c20"} {
		err := cat.Define(&catalog.Class{
			Name: name, Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := OpenManager(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	return m, cat, st
}

// defineFigure2 builds the desert specialization hierarchy of Figure 2.
func defineFigure2(t *testing.T, m *Manager) {
	t.Helper()
	defs := []*Concept{
		{Name: "desert", Doc: "imprecisely defined desertic region"},
		{Name: "hot trade-wind desert", Parents: []string{"desert"}, Classes: []string{"c2", "c3", "c4", "c5"}},
		{Name: "ice-snow desert", Parents: []string{"desert"}, Classes: []string{"c6"}},
		{Name: "vegetation change", Classes: []string{"c7", "c8"}},
	}
	for _, c := range defs {
		if err := m.Define(c); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDefineAndGet(t *testing.T) {
	m, _, _ := newManager(t)
	defineFigure2(t, m)
	c, err := m.Get("hot trade-wind desert")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Classes) != 4 || c.Parents[0] != "desert" {
		t.Errorf("concept = %+v", c)
	}
	if _, err := m.Get("jungle"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing err = %v", err)
	}
	want := []string{"desert", "hot trade-wind desert", "ice-snow desert", "vegetation change"}
	if !reflect.DeepEqual(m.Names(), want) {
		t.Errorf("Names = %v", m.Names())
	}
}

func TestDefineValidation(t *testing.T) {
	m, _, _ := newManager(t)
	defineFigure2(t, m)
	cases := []struct {
		name string
		c    *Concept
	}{
		{"bad name", &Concept{Name: "9bad"}},
		{"duplicate", &Concept{Name: "desert"}},
		{"unknown class", &Concept{Name: "x", Classes: []string{"ghost"}}},
		{"dup class", &Concept{Name: "x", Classes: []string{"c2", "c2"}}},
		{"unknown parent", &Concept{Name: "x", Parents: []string{"ghost"}}},
		{"self parent", &Concept{Name: "x", Parents: []string{"x"}}},
	}
	for _, tc := range cases {
		if err := m.Define(tc.c); err == nil {
			t.Errorf("%s: should fail", tc.name)
		}
	}
}

func TestHierarchyQueries(t *testing.T) {
	m, _, _ := newManager(t)
	defineFigure2(t, m)
	if _, err := m.MemberClasses("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("member classes of missing err = %v", err)
	}
	// MemberClasses of desert fan out over all specializations.
	classes, err := m.MemberClasses("desert")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"c2", "c3", "c4", "c5", "c6"}
	if !reflect.DeepEqual(classes, want) {
		t.Errorf("MemberClasses(desert) = %v", classes)
	}
	// Leaf concept sees only its own classes.
	classes, _ = m.MemberClasses("ice-snow desert")
	if !reflect.DeepEqual(classes, []string{"c6"}) {
		t.Errorf("MemberClasses(leaf) = %v", classes)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	m, cat, st := newManager(t)
	defineFigure2(t, m)
	// A new derivation joins the concept family (the two-scientists story:
	// a new process defines class c20, specialising vegetation change).
	if err := m.Define(&Concept{Name: "greening", Parents: []string{"vegetation change"}, Classes: []string{"c20"}}); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenManager(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m2.Get("greening")
	if err != nil || !reflect.DeepEqual(c.Parents, []string{"vegetation change"}) {
		t.Errorf("reload = %+v, %v", c, err)
	}
	if classes, _ := m2.MemberClasses("vegetation change"); len(classes) != 3 {
		t.Errorf("reload MemberClasses(vegetation change) = %v", classes)
	}
	classes, _ := m2.MemberClasses("desert")
	if len(classes) != 5 {
		t.Errorf("reload MemberClasses = %v", classes)
	}
}

func TestDiamondHierarchy(t *testing.T) {
	// ISA hierarchies "can be general directed acyclic graph structures"
	// (footnote 4): a concept with two parents.
	m, _, _ := newManager(t)
	m.Define(&Concept{Name: "dry"})
	m.Define(&Concept{Name: "hot"})
	m.Define(&Concept{Name: "hot-dry", Parents: []string{"dry", "hot"}, Classes: []string{"c2"}})
	c, err := m.Get("hot-dry")
	if err != nil || !reflect.DeepEqual(c.Parents, []string{"dry", "hot"}) {
		t.Errorf("diamond parents = %+v, %v", c, err)
	}
	for _, p := range []string{"dry", "hot"} {
		classes, _ := m.MemberClasses(p)
		if !reflect.DeepEqual(classes, []string{"c2"}) {
			t.Errorf("MemberClasses(%s) = %v", p, classes)
		}
	}
}
