package object

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gaea/internal/catalog"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

type fixture struct {
	st  *storage.Store
	cat *catalog.Catalog
	obj *Store
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defineTestClasses(t, cat)
	obj, err := Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{st: st, cat: cat, obj: obj}
}

func defineTestClasses(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	scenes := &catalog.Class{
		Name: "landsat_tm", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{
			{Name: "band", Type: value.TypeString},
			{Name: "data", Type: value.TypeImage},
		},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
	}
	if err := cat.Define(scenes); err != nil {
		t.Fatal(err)
	}
	stats := &catalog.Class{
		Name: "region_stats", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{
			{Name: "name", Type: value.TypeString},
			{Name: "mean_rain", Type: value.TypeFloat},
		},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}
	if err := cat.Define(stats); err != nil {
		t.Fatal(err)
	}
}

func sceneObject(band string, x float64, t sptemp.AbsTime) *Object {
	img := raster.MustNew(4, 4, raster.PixFloat4)
	img.Set(0, 0, 0.5)
	return &Object{
		Class: "landsat_tm",
		Attrs: map[string]value.Value{
			"band": value.String_(band),
			"data": value.Image{Img: img},
		},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+100, 100), t),
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	f := newFixture(t)
	oid, err := f.obj.Insert(sceneObject("red", 0, sptemp.Date(1986, 1, 15)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.obj.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != "landsat_tm" || got.OID != oid {
		t.Errorf("identity wrong: %+v", got)
	}
	band, err := got.Attr("band")
	if err != nil || band.(value.String_) != "red" {
		t.Errorf("band = %v, %v", band, err)
	}
	img, err := value.AsImage(got.Attrs["data"])
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := img.At(0, 0); v != 0.5 {
		t.Errorf("image pixel lost: %g", v)
	}
	// Extent accessors.
	se, err := got.Attr("spatialextent")
	if err != nil || se.(value.Box).Box().IsEmpty() {
		t.Errorf("spatialextent = %v, %v", se, err)
	}
	ts, err := got.Attr("timestamp")
	if err != nil || ts.(value.AbsTime).Time() != sptemp.Date(1986, 1, 15) {
		t.Errorf("timestamp = %v, %v", ts, err)
	}
	if _, err := got.Attr("nope"); !errors.Is(err, ErrBadAttr) {
		t.Errorf("missing attr err = %v", err)
	}
}

func TestInsertValidation(t *testing.T) {
	f := newFixture(t)
	// Unknown class.
	bad := sceneObject("red", 0, sptemp.Date(1986, 1, 1))
	bad.Class = "ghost"
	if _, err := f.obj.Insert(bad); err == nil {
		t.Error("unknown class must fail")
	}
	// Missing attribute.
	m := sceneObject("red", 0, sptemp.Date(1986, 1, 1))
	delete(m.Attrs, "band")
	if _, err := f.obj.Insert(m); !errors.Is(err, ErrBadAttr) {
		t.Errorf("missing attr err = %v", err)
	}
	// Extra attribute.
	e := sceneObject("red", 0, sptemp.Date(1986, 1, 1))
	e.Attrs["extra"] = value.Int(1)
	if _, err := f.obj.Insert(e); !errors.Is(err, ErrBadAttr) {
		t.Errorf("extra attr err = %v", err)
	}
	// Wrong type.
	w := sceneObject("red", 0, sptemp.Date(1986, 1, 1))
	w.Attrs["band"] = value.Int(3)
	if _, err := f.obj.Insert(w); !errors.Is(err, ErrBadAttr) {
		t.Errorf("wrong type err = %v", err)
	}
	// Missing temporal extent on temporal class.
	n := sceneObject("red", 0, sptemp.Date(1986, 1, 1))
	n.Extent.HasTime = false
	if _, err := f.obj.Insert(n); !errors.Is(err, ErrBadAttr) {
		t.Errorf("missing time err = %v", err)
	}
	// Wrong frame.
	fr := sceneObject("red", 0, sptemp.Date(1986, 1, 1))
	fr.Extent.Frame = sptemp.Frame{System: sptemp.RefLongLat, Unit: sptemp.UnitDegree}
	if _, err := f.obj.Insert(fr); !errors.Is(err, ErrBadAttr) {
		t.Errorf("wrong frame err = %v", err)
	}
}

func TestQueryBySpaceAndTime(t *testing.T) {
	f := newFixture(t)
	jan := sptemp.Date(1986, 1, 15)
	jun := sptemp.Date(1986, 6, 15)
	o1, _ := f.obj.Insert(sceneObject("red", 0, jan))    // west, january
	o2, _ := f.obj.Insert(sceneObject("red", 1000, jan)) // east, january
	o3, _ := f.obj.Insert(sceneObject("red", 0, jun))    // west, june

	// Spatial only: west box.
	got, err := f.obj.Query("landsat_tm", sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 50, 50)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []OID{o1, o3}) {
		t.Errorf("west query = %v, want [%d %d]", got, o1, o3)
	}
	// Spatio-temporal: west + january.
	pred := sptemp.NewExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 50, 50),
		sptemp.Interval{Start: sptemp.Date(1986, 1, 1), End: sptemp.Date(1986, 2, 1)})
	got, err = f.obj.Query("landsat_tm", pred)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []OID{o1}) {
		t.Errorf("west+jan query = %v, want [%d]", got, o1)
	}
	// Temporal only.
	tpred := sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox(),
		TimeIv: sptemp.Interval{Start: sptemp.Date(1986, 1, 1), End: sptemp.Date(1986, 2, 1)}, HasTime: true}
	got, err = f.obj.Query("landsat_tm", tpred)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []OID{o1, o2}) {
		t.Errorf("january query = %v", got)
	}
	// No predicate at all: all members.
	all, err := f.obj.Query("landsat_tm", sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("all query = %v", all)
	}
	// Unknown class.
	if _, err := f.obj.Query("ghost", sptemp.Extent{}); err == nil {
		t.Error("unknown class must fail")
	}
}

func TestDeleteRemovesEverything(t *testing.T) {
	f := newFixture(t)
	oid, _ := f.obj.Insert(sceneObject("red", 0, sptemp.Date(1986, 1, 15)))
	blobs, _ := f.st.Blobs().IDs()
	if len(blobs) != 1 {
		t.Fatalf("expected 1 blob, got %d", len(blobs))
	}
	if err := f.obj.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.obj.Get(oid); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted get err = %v", err)
	}
	if err := f.obj.Delete(oid); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	// The deleted version (and its blobs) survive for pinned snapshots
	// until GC reclaims the chain.
	if _, err := f.obj.GC(); err != nil {
		t.Fatal(err)
	}
	blobs, _ = f.st.Blobs().IDs()
	if len(blobs) != 0 {
		t.Errorf("blobs leaked: %v", blobs)
	}
	if got, _ := f.obj.Query("landsat_tm", sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 50, 50))); len(got) != 0 {
		t.Errorf("index still returns deleted object: %v", got)
	}
	if f.obj.Count("landsat_tm") != 0 {
		t.Error("count wrong after delete")
	}
}

// TestExtentIsNewestVersions checks Extent against Get through an insert,
// an update that moves the object and a delete, with the image blob gone
// in between: Extent reads no record and no image.
func TestExtentIsNewestVersions(t *testing.T) {
	f := newFixture(t)
	obj := sceneObject("red", 0, sptemp.Date(1986, 1, 15))
	oid, err := f.obj.Insert(obj)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		got, err := f.obj.Extent(oid)
		want, werr := f.obj.Get(oid)
		if err != nil || werr != nil || !got.Equal(want.Extent) {
			t.Errorf("%s: Extent = %v, %v; Get's %v, %v", when, got, err, want.Extent, werr)
		}
	}
	check("inserted")
	obj.Extent = sceneObject("red", 500, sptemp.Date(1990, 6, 1)).Extent
	if err := f.obj.Update(obj); err != nil {
		t.Fatal(err)
	}
	check("updated")
	blobs, _ := f.st.Blobs().IDs()
	for _, id := range blobs {
		if err := f.st.Blobs().Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if ext, err := f.obj.Extent(oid); err != nil || !ext.Equal(obj.Extent) {
		t.Errorf("with the image deleted: Extent = %v, %v; want %v", ext, err, obj.Extent)
	}
	if err := f.obj.Delete(oid); err != nil {
		t.Fatal(err)
	}
	for _, o := range []OID{oid, oid + 100} {
		if _, err := f.obj.Extent(o); !errors.Is(err, ErrNotFound) {
			t.Errorf("Extent(%d) err = %v, want ErrNotFound", o, err)
		}
	}
}

func TestReopenRebuildsIndexes(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := catalog.Open(st)
	defineTestClasses(t, cat)
	obj, _ := Open(st, cat)
	oid, err := obj.Insert(sceneObject("nir", 0, sptemp.Date(1989, 6, 1)))
	if err != nil {
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
	obj2, err := Open(st2, cat2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj2.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs["band"].(value.String_) != "nir" {
		t.Error("reloaded object wrong")
	}
	// Indexes answer queries after reopen.
	hits, err := obj2.Query("landsat_tm", sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 10, 10)))
	if err != nil || len(hits) != 1 || hits[0] != oid {
		t.Errorf("query after reopen = %v, %v", hits, err)
	}
	if !reflect.DeepEqual(obj2.Members("landsat_tm"), []OID{oid}) {
		t.Error("members after reopen wrong")
	}
}

// TestOpenDropsOrphanBlobs: a blob put for a batch whose WAL group never
// became durable (a crash between the put and the commit) is referenced
// by no record. Open drops it, and the next checkpoint reclaims its bytes;
// the blobs of stored objects stay.
func TestOpenDropsOrphanBlobs(t *testing.T) {
	dir := t.TempDir()
	st, obj := openStore(t, dir, sceneClass)
	oid, err := obj.Insert(sceneObject("nir", 0, sptemp.Date(1989, 6, 1)))
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := st.Blobs().IDs()
	orphan := storage.BlobID(st.AllocID("blob"))
	if err := st.Blobs().Put(orphan, []byte("pixels of a batch that never committed")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if obj, err = Open(st, cat); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ids, _ := st.Blobs().IDs(); !reflect.DeepEqual(ids, kept) {
		t.Errorf("blobs after reopen and checkpoint: %v, want only the stored object's %v", ids, kept)
	}
	if _, err := obj.Get(oid); err != nil {
		t.Errorf("stored object after reopen: %v", err)
	}
}

func TestTimelessClass(t *testing.T) {
	f := newFixture(t)
	o := &Object{
		Class: "region_stats",
		Attrs: map[string]value.Value{
			"name":      value.String_("sahel"),
			"mean_rain": value.Float(220),
		},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 10, 10)),
	}
	oid, err := f.obj.Insert(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.obj.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Attr("timestamp"); err == nil {
		t.Error("timeless object has no timestamp accessor")
	}
	// Timed predicate still matches timeless objects.
	pred := sptemp.NewExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 5, 5), sptemp.Instant(sptemp.Date(1990, 1, 1)))
	hits, err := f.obj.Query("region_stats", pred)
	if err != nil || len(hits) != 1 {
		t.Errorf("timeless query = %v, %v", hits, err)
	}
}

func TestMultipleImageAttributes(t *testing.T) {
	f := newFixture(t)
	cls := &catalog.Class{
		Name: "pair", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{
			{Name: "a", Type: value.TypeImage},
			{Name: "b", Type: value.TypeImage},
		},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}
	if err := f.cat.Define(cls); err != nil {
		t.Fatal(err)
	}
	imgA := raster.MustNew(2, 2, raster.PixChar)
	imgA.Set(0, 0, 1)
	imgB := raster.MustNew(3, 3, raster.PixChar)
	imgB.Set(1, 1, 2)
	oid, err := f.obj.Insert(&Object{
		Class:  "pair",
		Attrs:  map[string]value.Value{"a": value.Image{Img: imgA}, "b": value.Image{Img: imgB}},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 1, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.obj.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := value.AsImage(got.Attrs["a"])
	b, _ := value.AsImage(got.Attrs["b"])
	if a.Rows() != 2 || b.Rows() != 3 {
		t.Error("image attributes swapped or lost")
	}
	if va, _ := a.At(0, 0); va != 1 {
		t.Error("image a content wrong")
	}
	if vb, _ := b.At(1, 1); vb != 2 {
		t.Error("image b content wrong")
	}
}

func TestUpdateInPlace(t *testing.T) {
	f := newFixture(t)
	day := sptemp.Date(1986, 6, 1)
	oid, err := f.obj.Insert(sceneObject("red", 0, day))
	if err != nil {
		t.Fatal(err)
	}

	// Replace the payload and move the extent.
	img := raster.MustNew(4, 4, raster.PixFloat4)
	img.Set(0, 0, 0.9)
	day2 := sptemp.Date(1989, 6, 1)
	upd := &Object{
		OID:   oid,
		Class: "landsat_tm",
		Attrs: map[string]value.Value{
			"band": value.String_("nir"),
			"data": value.Image{Img: img},
		},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(500, 0, 600, 100), day2),
	}
	if err := f.obj.Update(upd); err != nil {
		t.Fatal(err)
	}
	got, err := f.obj.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != oid {
		t.Errorf("OID changed: %d", got.OID)
	}
	if got.Attrs["band"].(value.String_) != "nir" {
		t.Errorf("band = %v", got.Attrs["band"])
	}
	v, _ := got.Attrs["data"].(value.Image).Img.At(0, 0)
	if v < 0.89 || v > 0.91 {
		t.Errorf("updated pixel = %v", v)
	}

	// The extent indexes answer for the new extent only.
	hits, err := f.obj.Query("landsat_tm", sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(500, 0, 600, 100)))
	if err != nil || len(hits) != 1 || hits[0] != oid {
		t.Errorf("query new extent = %v, %v", hits, err)
	}
	hits, err = f.obj.Query("landsat_tm", sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 100, 100)))
	if err != nil || len(hits) != 0 {
		t.Errorf("query old extent = %v, %v", hits, err)
	}

	// One live object, but TWO stored versions until GC reclaims the
	// superseded one (it stays reachable for pinned snapshots).
	if n := f.obj.Count("landsat_tm"); n != 1 {
		t.Errorf("count = %d", n)
	}
	_, records := f.st.HeapStats("obj_landsat_tm")
	if records != 2 {
		t.Errorf("heap records before GC = %d, want 2 (version chain)", records)
	}
	ids, err := f.st.Blobs().IDs()
	if err != nil || len(ids) != 2 {
		t.Errorf("blobs before GC = %v, %v", ids, err)
	}
	if n, err := f.obj.GC(); err != nil || n != 1 {
		t.Fatalf("GC = %d, %v, want 1 version reclaimed", n, err)
	}
	_, records = f.st.HeapStats("obj_landsat_tm")
	if records != 1 {
		t.Errorf("heap records after GC = %d, want 1", records)
	}
	ids, err = f.st.Blobs().IDs()
	if err != nil || len(ids) != 1 {
		t.Errorf("blobs after GC = %v, %v", ids, err)
	}
}

func TestUpdateValidation(t *testing.T) {
	f := newFixture(t)
	day := sptemp.Date(1986, 6, 1)
	oid, err := f.obj.Insert(sceneObject("red", 0, day))
	if err != nil {
		t.Fatal(err)
	}
	// Unknown OID.
	missing := sceneObject("red", 0, day)
	missing.OID = oid + 999
	if err := f.obj.Update(missing); !errors.Is(err, ErrNotFound) {
		t.Errorf("update unknown oid = %v", err)
	}
	// No OID at all.
	if err := f.obj.Update(sceneObject("red", 0, day)); !errors.Is(err, ErrBadAttr) {
		t.Errorf("update without oid = %v", err)
	}
	// Class change is refused.
	if _, err := f.obj.Insert(&Object{
		Class:  "region_stats",
		Attrs:  map[string]value.Value{"name": value.String_("x"), "mean_rain": value.Float(1)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 1, 1)),
	}); err != nil {
		t.Fatal(err)
	}
	wrong := sceneObject("red", 0, day)
	wrong.OID = oid
	wrong.Class = "region_stats"
	wrong.Attrs = map[string]value.Value{"name": value.String_("x"), "mean_rain": value.Float(1)}
	wrong.Extent = sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 1, 1))
	if err := f.obj.Update(wrong); !errors.Is(err, ErrBadAttr) {
		t.Errorf("update with class change = %v", err)
	}
	// Schema violations are refused before anything is written.
	bad := sceneObject("red", 0, day)
	bad.OID = oid
	delete(bad.Attrs, "band")
	if err := f.obj.Update(bad); !errors.Is(err, ErrBadAttr) {
		t.Errorf("update missing attr = %v", err)
	}
}

func TestUpdatePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defineTestClasses(t, cat)
	obj, err := Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	day := sptemp.Date(1986, 6, 1)
	oid, err := obj.Insert(sceneObject("red", 0, day))
	if err != nil {
		t.Fatal(err)
	}
	upd := sceneObject("swir", 0, day)
	upd.OID = oid
	if err := obj.Update(upd); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	cat2, err := catalog.Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	obj2, err := Open(st2, cat2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj2.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs["band"].(value.String_) != "swir" {
		t.Errorf("band after reopen = %v", got.Attrs["band"])
	}
	if n := obj2.Count("landsat_tm"); n != 1 {
		t.Errorf("count after reopen = %d", n)
	}
}

func TestExistsAndRecordSize(t *testing.T) {
	f := newFixture(t)
	day := sptemp.Date(1986, 6, 1)
	scene := sceneObject("red", 0, day)
	oid, err := f.obj.Insert(scene)
	if err != nil {
		t.Fatal(err)
	}
	if !f.obj.Exists(oid) {
		t.Error("Exists(live) = false")
	}
	if f.obj.Exists(oid + 999) {
		t.Error("Exists(missing) = true")
	}
	n, err := f.obj.RecordSize(oid)
	if err != nil {
		t.Fatal(err)
	}
	// The image blob alone is its byte-plane form; the record adds more.
	if blob := len(raster.Pack(scene.Attrs["data"].(value.Image).Img)); n <= int64(blob) {
		t.Errorf("record size = %d, not above the %d-byte image blob", n, blob)
	}
	if err := f.obj.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if f.obj.Exists(oid) {
		t.Error("Exists(deleted) = true")
	}
	if _, err := f.obj.RecordSize(oid); !errors.Is(err, ErrNotFound) {
		t.Errorf("RecordSize(deleted) = %v", err)
	}
}

// TestReopenHealsInterruptedUpdate leaves two version records for one
// OID (as an update whose GC never ran would). Reopen must rebuild the
// chain so Get serves the newest version, and GC must prune the loser.
func TestReopenHealsInterruptedUpdate(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defineTestClasses(t, cat)
	obj, err := Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	day := sptemp.Date(1986, 6, 1)
	oid, err := obj.Insert(sceneObject("red", 0, day))
	if err != nil {
		t.Fatal(err)
	}
	// Hand-insert a newer version record for the same OID, as a crashed
	// Update whose GC never ran would leave behind.
	newer := sceneObject("nir", 0, day)
	newer.OID = oid
	sch, err := obj.schema(newer.Class)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := appendObject(nil, sch, newer, obj.putBlob)
	if err != nil {
		t.Fatal(err)
	}
	b := st.NewBatch()
	b.SetEpoch(obj.CurrentEpoch() + 1)
	b.Insert(heapFor("landsat_tm"), stamp(rec, oid, obj.CurrentEpoch()+1))
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	cat2, err := catalog.Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	obj2, err := Open(st2, cat2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj2.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs["band"].(value.String_) != "nir" {
		t.Errorf("band after reopen = %v, want the newer version", got.Attrs["band"])
	}
	if n := obj2.Count("landsat_tm"); n != 1 {
		t.Errorf("count = %d", n)
	}
	// Both versions survive the reopen as a chain; GC prunes the loser.
	if n, err := obj2.GC(); err != nil || n != 1 {
		t.Fatalf("GC = %d, %v, want 1", n, err)
	}
	_, records := st2.HeapStats(heapFor("landsat_tm"))
	if records != 1 {
		t.Errorf("heap records after GC = %d, want 1", records)
	}
}

// defineStation adds a small timed, spatial class for the model tests.
func defineStation(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	if err := cat.Define(&catalog.Class{
		Name: "station", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
	}); err != nil {
		t.Fatal(err)
	}
}

func stationAt(oid OID, b sptemp.Box, iv sptemp.Interval) *Object {
	return &Object{OID: oid, Class: "station", Attrs: map[string]value.Value{"mm": value.Float(1)},
		Extent: sptemp.NewExtent(sptemp.DefaultFrame, b, iv)}
}

// pagedAt drains QueryFromAt the way a paged stream does: a fresh walk
// per page, resumed strictly after the last OID of the page before.
func pagedAt(s *Store, pred sptemp.Extent, epoch uint64, pageSize int) ([]OID, error) {
	var got []OID
	for after := OID(0); ; {
		n := 0
		for oid, err := range s.QueryFromAt("station", pred, after, epoch) {
			if err != nil {
				return nil, err
			}
			got, after = append(got, oid), oid
			if n++; n == pageSize {
				break
			}
		}
		if n < pageSize {
			return got, nil
		}
	}
}

// TestSnapshotQueriesAgainstModel drives random inserts, updates (same
// extent, moved, re-timed) and deletes, pinning an epoch now and then, and
// after every step checks QueryAt and the paged QueryFromAt at every
// pinned epoch and at the newest state against a brute-force model of what
// each epoch held — through GC passes, and at the end through a reopen,
// whose heap scan meets the versions of an object in any order.
func TestSnapshotQueriesAgainstModel(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defineStation(t, cat)
	s, err := Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(7))
	randBox := func() sptemp.Box {
		x, y := float64(r.Intn(12))*10, float64(r.Intn(4))*10
		if r.Intn(10) == 0 {
			return sptemp.NewBox(x, y, x+400, y+400) // far wider than a cell
		}
		return sptemp.NewBox(x, y, x+10, y+10)
	}
	randIv := func() sptemp.Interval {
		start := sptemp.AbsTime(r.Intn(6) * 100)
		return sptemp.Interval{Start: start, End: start + sptemp.AbsTime(r.Intn(300))}
	}
	preds := []sptemp.Extent{
		{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()},
		sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(20, 0, 40, 10)),
		sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(-1e7, -1e7, 1e7, 1e7)),
		sptemp.NewExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 60, 20), sptemp.Interval{Start: 150, End: 320}),
		{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox(), HasTime: true, TimeIv: sptemp.Interval{Start: 100, End: 250}},
	}

	type snapshot struct {
		epoch uint64
		exts  map[OID]sptemp.Extent
	}
	live := make(map[OID]sptemp.Extent)
	var pinned []snapshot
	check := func(s *Store, epoch uint64, exts map[OID]sptemp.Extent, what string) {
		t.Helper()
		for i, pred := range preds {
			var want []OID
			for oid, ext := range exts {
				if ext.Matches(pred) {
					want = append(want, oid)
				}
			}
			slices.Sort(want)
			got, err := s.QueryAt("station", pred, epoch)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s, predicate %d: QueryAt = %v, %v; the model says %v", what, i, got, err, want)
			}
			if epoch != latestEpoch {
				if got, err := pagedAt(s, pred, epoch, 3); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s, predicate %d: pages of 3 = %v, %v; the model says %v", what, i, got, err, want)
				}
			}
		}
	}

	for step := 0; step < 300; step++ {
		oids := slices.Sorted(maps.Keys(live))
		switch op := r.Intn(10); {
		case op < 3 || len(oids) == 0:
			o := stationAt(0, randBox(), randIv())
			oid, err := s.Insert(o)
			if err != nil {
				t.Fatal(err)
			}
			live[oid] = o.Extent
		case op < 8:
			oid := oids[r.Intn(len(oids))]
			ext := live[oid]
			switch r.Intn(3) {
			case 0: // same extent: the indexes are left alone
			case 1:
				ext.Space = randBox()
			case 2:
				ext.TimeIv = randIv()
			}
			if err := s.Update(stationAt(oid, ext.Space, ext.TimeIv)); err != nil {
				t.Fatal(err)
			}
			live[oid] = ext
		default:
			oid := oids[r.Intn(len(oids))]
			if err := s.Delete(oid); err != nil {
				t.Fatal(err)
			}
			delete(live, oid)
		}
		if step%25 == 10 {
			pinned = append(pinned, snapshot{epoch: s.Pin(), exts: maps.Clone(live)})
		}
		if step%60 == 59 {
			// Release the oldest pin and collect behind it.
			s.Unpin(pinned[0].epoch)
			pinned = pinned[1:]
			if _, err := s.GC(); err != nil {
				t.Fatal(err)
			}
		}
		check(s, latestEpoch, live, fmt.Sprintf("step %d, newest", step))
		for _, p := range pinned {
			check(s, p.epoch, p.exts, fmt.Sprintf("step %d, epoch %d", step, p.epoch))
		}
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cat2, err := catalog.Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(st2, cat2)
	if err != nil {
		t.Fatal(err)
	}
	check(s2, latestEpoch, live, "after reopen")
	if got, want := s2.Members("station"), slices.Sorted(maps.Keys(live)); !slices.Equal(got, want) {
		t.Errorf("members after reopen = %v, want %v", got, want)
	}
}

// TestWalkCandidatesConcurrent: more paged walks than the candidate memo
// has slots run at one pinned epoch, each over its own box, while a writer
// moves and deletes objects and GC runs; every walk must concatenate to
// QueryAt at that epoch. Run under -race it is also the memo's data-race
// test.
func TestWalkCandidatesConcurrent(t *testing.T) {
	f := newFixture(t)
	defineStation(t, f.cat)
	s := f.obj
	const n = 600
	iv := sptemp.Interval{Start: 0, End: 10}
	var batch BatchOps
	for i := range n {
		o := stationAt(0, sptemp.NewBox(float64(i)*20, 0, float64(i)*20+10, 10), iv)
		if _, err := s.Reserve(o); err != nil {
			t.Fatal(err)
		}
		batch.Inserts = append(batch.Inserts, o)
	}
	if _, err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	epoch := s.Pin()
	defer s.Unpin(epoch)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < n; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o := batch.Inserts[(i*7)%n]
			var err error
			switch i % 3 {
			case 0:
				err = s.Update(stationAt(o.OID, sptemp.NewBox(1e6, 0, 1e6+10, 10), iv))
			case 1:
				err = s.Update(stationAt(o.OID, sptemp.NewBox(40, 0, 50, 10), iv))
			case 2:
				err = s.Delete(o.OID)
			}
			if err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("writer: %v", err)
				return
			}
			if i%50 == 49 {
				if _, err := s.GC(); err != nil {
					t.Errorf("gc: %v", err)
					return
				}
			}
		}
	}()

	const walkers = 2*len(s.memo.ents) + 3
	var wg sync.WaitGroup
	for w := range walkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := float64(w * 25 * 20)
			pred := sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(from, 0, from+100*20, 10))
			want, err := s.QueryAt("station", pred, epoch)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 3; round++ {
				got, err := pagedAt(s, pred, epoch, 16)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want) {
					t.Errorf("walker %d round %d: pages hold %d objects, QueryAt %d", w, round, len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
}

// Members returns all live OIDs of a class at the newest epoch, ascending.
func (s *Store) Members(class string) []OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ci := s.classes[class]; ci != nil {
		return slices.Clone(ci.members)
	}
	return nil
}
