package object

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gaea/internal/catalog"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

// gaugeClass is the class of bench/gauge.go: one float reading per tile.
var gaugeClass = &catalog.Class{
	Name: "gauge", Kind: catalog.KindBase,
	Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
	Frame: sptemp.DefaultFrame, HasSpatial: true,
}

// noBlobs is the put of a test whose objects hold no image.
func noBlobs([]byte) (storage.BlobID, error) {
	return 0, errors.New("unexpected blob offload")
}

// sceneClass is a Landsat band: a name and an offloaded image per scene.
var sceneClass = &catalog.Class{
	Name: "landsat_tm", Kind: catalog.KindBase,
	Attrs: []catalog.Attr{{Name: "band", Type: value.TypeString}, {Name: "data", Type: value.TypeImage}},
	Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
}

// TestRecordBytes pins the stored bytes per object: a bytes-per-object
// regression fails here, not only at the benchmark's disk gate. The
// epoch and OID are the largest that still take two and three uvarint
// bytes — the range a benchmark gauge set lives in.
func TestRecordBytes(t *testing.T) {
	const oid, epoch = 1<<21 - 1, 1<<14 - 1
	gauge := func(box sptemp.Box) *Object {
		return &Object{
			OID: oid, Class: "gauge",
			Attrs:  map[string]value.Value{"mm": value.Float(12.5)},
			Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, box),
		}
	}
	scene := &Object{
		OID: oid, Class: "landsat_tm",
		Attrs:  map[string]value.Value{"band": value.String_("red"), "data": value.Image{Img: raster.MustNew(2, 2, raster.PixChar)}},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(3000, 0, 3100, 100), sptemp.Date(1986, 1, 15)),
	}
	put := func([]byte) (storage.BlobID, error) { return 1 << 20, nil }
	var buf []byte
	for _, c := range []struct {
		what string
		cls  *catalog.Class
		obj  *Object
		max  int
		raw  bool // stored as the unpacked layout, byte for byte
	}{
		{"a gauge", gaugeClass, gauge(sptemp.NewBox(20, 0, 30, 10)), 26, false}, // 48 unpacked
		{"a Landsat scene", sceneClass, scene, 38, false},                       // 72 unpacked
		{"a gauge with no integral coordinate", gaugeClass, gauge(sptemp.NewBox(20.5, 0.5, 30.5, 10.5)), 48, true},
	} {
		sch := newSchema(c.cls)
		var err error
		if buf, _, err = encodeObject(sch, c.obj, put); err != nil {
			t.Fatal(err)
		}
		rec := stamp(buf, oid, epoch)
		if len(rec) > c.max {
			t.Errorf("%s is stored in %d bytes, want at most %d", c.what, len(rec), c.max)
		}
		if old := unpackedRecord(t, rec, sch); c.raw && !bytes.Equal(rec, old) {
			t.Errorf("%s is stored as\n%x\nnot as the unpacked layout\n%x", c.what, rec, old)
		}
	}
	if n := len(encodeTombstone(oid, epoch)); n > 6 {
		t.Errorf("a tombstone is stored in %d bytes, want at most 6", n)
	}
	if n := testing.AllocsPerRun(100, func() { stamp(buf, oid, epoch) }); n != 0 {
		t.Errorf("stamping a record allocates %v times", n)
	}
}

// unpackedRecord rewrites a compact relative record with its extent
// unpacked, as encodeObject writes it when packing would not shorten it:
// flag 0x10 clear, the box as four f64s and, when timed, the interval as
// two i64s.
func unpackedRecord(t testing.TB, rec []byte, sch *schema) []byte {
	w, err := parseRecord(rec, sch)
	if err != nil {
		t.Fatal(err)
	}
	flags := rec[0] &^ flagPacked
	out := appendHeader(nil, flags, w.epoch, w.oid)
	if w.del {
		return out
	}
	out = appendBox(out, w.ext.Space)
	if w.ext.HasTime {
		out = binary.LittleEndian.AppendUint64(out, uint64(w.ext.TimeIv.Start))
		out = binary.LittleEndian.AppendUint64(out, uint64(w.ext.TimeIv.End))
	}
	if flags&flagOwnFrame != 0 {
		out = appendStr16(out, string(w.ext.Frame.System))
		out = appendStr16(out, string(w.ext.Frame.Unit))
	}
	return append(out, rec[w.r.off:]...)
}

// fixedHeader rewrites a compact record in the fixed-header form earlier
// stores wrote, which a heap no longer holds: flag 0x08 clear, then the
// epoch and the OID as u64s.
func fixedHeader(rec []byte) []byte {
	epoch, n := binary.Uvarint(rec[1:])
	oid, m := binary.Uvarint(rec[1+n:])
	out := binary.LittleEndian.AppendUint64([]byte{rec[0] &^ flagCompact}, epoch)
	out = binary.LittleEndian.AppendUint64(out, oid)
	return append(out, rec[1+n+m:]...)
}

// TestOpenRefusesOldRecordForms: a heap record in a form the store wrote
// before the compact one — the fixed header, or self-describing GOB3 —
// fails Open, which names the record.
func TestOpenRefusesOldRecordForms(t *testing.T) {
	obj := &Object{
		OID: 99, Class: "gauge",
		Attrs:  map[string]value.Value{"mm": value.Float(12.5)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(20, 0, 30, 10)),
	}
	sch := newSchema(gaugeClass)
	buf, _, err := encodeObject(sch, obj, noBlobs)
	if err != nil {
		t.Fatal(err)
	}
	gob3, err := EncodeWire(obj)
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string][]byte{
		"fixed header": fixedHeader(stamp(buf, obj.OID, 1)),
		"GOB3":         gob3,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openStore(t, dir, gaugeClass)
			b := st.NewBatch()
			b.Insert(sch.heap, rec)
			if _, err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := storage.Open(dir, storage.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			cat, err := catalog.Open(st)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Open(st, cat); err == nil || !strings.Contains(err.Error(), "corrupt record") {
				t.Errorf("Open over a %s record: %v, want a corrupt record", name, err)
			}
		})
	}
}

// openStore opens a store in dir with the classes given.
func openStore(t *testing.T, dir string, classes ...*catalog.Class) (*storage.Store, *Store) {
	t.Helper()
	st, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range classes {
		if err := cat.Define(cls); err != nil {
			t.Fatal(err)
		}
	}
	obj, err := Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	return st, obj
}

var propTypes = []value.Type{
	value.TypeInt, value.TypeFloat, value.TypeString, value.TypeBool, value.TypeAbsTime,
	value.TypeInterval, value.TypeBox, value.TypeImage, value.TypeVector,
	value.SetOf(value.TypeFloat), value.SetOf(value.TypeString),
}

// randomClass draws a class with 0–8 attributes whose declared order is
// not their name order.
func randomClass(rng *rand.Rand, i int) *catalog.Class {
	cls := &catalog.Class{
		Name: fmt.Sprintf("c%d", i), Kind: catalog.KindBase,
		HasSpatial: rng.IntN(2) == 0, HasTemporal: rng.IntN(2) == 0,
	}
	if cls.HasSpatial {
		cls.Frame = sptemp.DefaultFrame
		if rng.IntN(3) == 0 {
			cls.Frame = sptemp.Frame{System: sptemp.RefLongLat, Unit: sptemp.UnitDegree}
		}
	}
	for j, n := 0, rng.IntN(9); j < n; j++ {
		cls.Attrs = append(cls.Attrs, catalog.Attr{
			Name: fmt.Sprintf("%c%d", 'a'+rng.IntN(26), j),
			Type: propTypes[rng.IntN(len(propTypes))],
		})
	}
	return cls
}

func randomValue(rng *rand.Rand, typ value.Type) value.Value {
	if elem, ok := typ.IsSet(); ok {
		if rng.IntN(2) == 0 {
			return randomValue(rng, elem) // a singleton satisfies a set type
		}
		set := value.Set{Elem: elem}
		for i, n := 0, 1+rng.IntN(3); i < n; i++ { // an empty set decodes as empty, not nil
			set.Items = append(set.Items, randomValue(rng, elem))
		}
		return set
	}
	switch typ {
	case value.TypeInt:
		return value.Int(rng.Int64() - rng.Int64())
	case value.TypeFloat:
		return value.Float(rng.NormFloat64() * 1e3)
	case value.TypeString:
		return value.String_(strings.Repeat("x", rng.IntN(200))) // past the 64-byte one-byte tag
	case value.TypeBool:
		return value.Bool(rng.IntN(2) == 0)
	case value.TypeAbsTime:
		return value.AbsTime(sptemp.Date(1980+rng.IntN(20), time.Month(1+rng.IntN(12)), 1+rng.IntN(28)))
	case value.TypeInterval:
		return value.Interval(sptemp.NewInterval(sptemp.Date(1986, 1, 1), sptemp.Date(1986+rng.IntN(5), 6, 1)))
	case value.TypeBox:
		return value.Box(sptemp.NewBox(0, 0, 1+rng.Float64(), 1+rng.Float64()))
	case value.TypeImage:
		img := raster.MustNew(1+rng.IntN(4), 1+rng.IntN(4), raster.PixFloat4)
		img.Set(0, 0, float64(rng.IntN(100)))
		return value.Image{Img: img}
	case value.TypeVector:
		v := make(value.Vector, rng.IntN(5))
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	panic("no generator for " + string(typ))
}

// edgeCoords are box coordinates at the packed form's limits and ones
// only a raw f64 holds.
var edgeCoords = []float64{
	math.Copysign(0, -1),
	math.Float64frombits(0x7ff8_0000_dead_beef), // a NaN with a payload
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, // subnormal
	1 << 53, -(1 << 53),
	1<<53 + 2, -(1<<53 + 2), // integral, past the packed range
}

// edgeIntervals are intervals at the int64 extremes: end-start overflows
// in the first two and the last.
var edgeIntervals = []sptemp.Interval{
	{Start: math.MinInt64, End: math.MaxInt64},
	{Start: math.MaxInt64, End: math.MinInt64},
	{Start: math.MinInt64, End: math.MinInt64},
	{Start: math.MaxInt64, End: math.MaxInt64},
	{Start: 0, End: math.MaxInt64},
	{Start: -1, End: math.MaxInt64},
}

// randomBox draws a box whose coordinates are all integral (a grid tile),
// none integral, or mixed: each integral, fractional or an edge
// coordinate, the corners in any order.
func randomBox(rng *rand.Rand) sptemp.Box {
	x := float64(rng.IntN(1000))
	switch rng.IntN(3) {
	case 0:
		return sptemp.NewBox(x, 0, x+10, 10)
	case 1:
		return sptemp.NewBox(x+0.5, 0.25, x+10.5, 10.25)
	}
	var c [4]float64
	for i := range c {
		switch rng.IntN(3) {
		case 0:
			c[i] = float64(rng.IntN(2001) - 1000)
		case 1:
			c[i] = rng.NormFloat64() * 1e3
		default:
			c[i] = edgeCoords[rng.IntN(len(edgeCoords))]
		}
	}
	return sptemp.Box{MinX: c[0], MinY: c[1], MaxX: c[2], MaxY: c[3]}
}

// edgeClass holds edgeObjects: no frame of its own, no spatial or
// temporal requirement, so any extent goes.
var edgeClass = &catalog.Class{
	Name: "edges", Kind: catalog.KindBase,
	Attrs: []catalog.Attr{{Name: "k", Type: value.TypeInt}},
}

// edgeObjects puts every edge coordinate in every corner of an integral
// box, adds the widest packed box and an unnormalised one, and gives
// them the edge intervals in turn, or none.
func edgeObjects() []*Object {
	boxes := []sptemp.Box{
		{MinX: -(1 << 53), MinY: -(1 << 53), MaxX: 1 << 53, MaxY: 1 << 53},
		{MinX: 10, MinY: 10, MaxX: 0, MaxY: -5},
	}
	for _, e := range edgeCoords {
		for i := 0; i < 4; i++ {
			c := [4]float64{3, -4, 13, 6}
			c[i] = e
			boxes = append(boxes, sptemp.Box{MinX: c[0], MinY: c[1], MaxX: c[2], MaxY: c[3]})
		}
	}
	var out []*Object
	for k, b := range boxes {
		o := &Object{Class: edgeClass.Name, Attrs: map[string]value.Value{"k": value.Int(int64(k))}}
		o.Extent.Space = b
		if j := k % (len(edgeIntervals) + 1); j < len(edgeIntervals) {
			o.Extent.HasTime, o.Extent.TimeIv = true, edgeIntervals[j]
		}
		out = append(out, o)
	}
	return out
}

// sameObject is reflect.DeepEqual with the box compared bit for bit, so
// that a NaN equals itself and -0 differs from +0.
func sameObject(a, b *Object) bool {
	if a == nil || b == nil {
		return a == b
	}
	bits := func(b sptemp.Box) [4]uint64 {
		return [4]uint64{math.Float64bits(b.MinX), math.Float64bits(b.MinY), math.Float64bits(b.MaxX), math.Float64bits(b.MaxY)}
	}
	if bits(a.Extent.Space) != bits(b.Extent.Space) {
		return false
	}
	a2, b2 := *a, *b
	a2.Extent.Space, b2.Extent.Space = sptemp.Box{}, sptemp.Box{}
	return reflect.DeepEqual(&a2, &b2)
}

func randomObject(rng *rand.Rand, cls *catalog.Class) *Object {
	o := &Object{Class: cls.Name, Attrs: map[string]value.Value{}}
	for _, a := range cls.Attrs {
		o.Attrs[a.Name] = randomValue(rng, a.Type)
	}
	o.Extent.Frame = cls.Frame
	if !cls.HasSpatial && rng.IntN(2) == 0 {
		o.Extent.Frame = sptemp.DefaultFrame // foreign to the class: stored in the record
	}
	o.Extent.Space = randomBox(rng)
	switch {
	case cls.HasSpatial && o.Extent.Space.IsEmpty(): // refused: a spatial class wants a non-empty box
		b := o.Extent.Space
		o.Extent.Space = sptemp.NewBox(b.MinX, b.MinY, b.MaxX, b.MaxY)
	case !cls.HasSpatial && rng.IntN(4) == 0:
		o.Extent.Space = sptemp.EmptyBox()
	}
	if cls.HasTemporal || rng.IntN(2) == 0 {
		o.Extent.HasTime = true
		o.Extent.TimeIv = sptemp.Instant(sptemp.Date(1986, time.Month(1+rng.IntN(12)), 1))
	}
	return o
}

// TestRecordRoundTripProperty: over random classes and objects, and
// extents at every limit of the packed form, what was created is bit for
// bit what GetAt returns after a reopen and what the raw path ships, and
// the shipped record is byte for byte the size EncodeWire gives — the
// relative form changes what is stored, not what is sent. No stored
// record is longer than the same object in the unpacked layout, and that
// layout reads as the same object.
func TestRecordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 93))
	dir := t.TempDir()
	var classes []*catalog.Class
	for i := 0; i < 40; i++ {
		classes = append(classes, randomClass(rng, i))
	}
	st, store := openStore(t, dir, append(classes, edgeClass)...)
	var made []*Object
	insert := func(o *Object) {
		if _, err := store.Insert(o); err != nil {
			t.Fatalf("insert %+v: %v", o, err)
		}
		made = append(made, o)
	}
	for _, cls := range classes {
		for i := 0; i < 4; i++ {
			insert(randomObject(rng, cls))
		}
	}
	for _, o := range edgeObjects() {
		insert(o)
	}
	// An image attribute with no image cannot be stored, and must leave
	// nothing behind (covered in depth by TestEncodeFailureRemovesBlobs).
	for _, cls := range classes {
		for _, a := range cls.Attrs {
			if a.Type != value.TypeImage {
				continue
			}
			o := randomObject(rng, cls)
			o.Attrs[a.Name] = value.Image{}
			if _, err := store.Insert(o); err == nil {
				t.Errorf("class %s: nil image in %q stored", cls.Name, a.Name)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, store = openStore(t, dir)
	defer st.Close()
	epoch := store.CurrentEpoch()
	var blobs int
	for _, want := range made {
		got, err := store.GetAt(want.OID, epoch)
		if err != nil || !sameObject(got, want) {
			t.Fatalf("GetAt(%d) = %+v, %v; want %+v", want.OID, got, err, want)
		}
		rec, payloads, err := store.GetRawAt(want.OID, epoch)
		if err != nil {
			t.Fatalf("GetRawAt(%d): %v", want.OID, err)
		}
		if got, err := DecodeWire(rec, payloads); err != nil || !sameObject(got, want) {
			t.Fatalf("DecodeWire(GetRawAt(%d)) = %+v, %v; want %+v", want.OID, got, err, want)
		}
		if len(payloads) > 0 {
			blobs++
			continue
		}
		wire, err := EncodeWire(want)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(rec[12:], 0) // EncodeWire leaves the epoch slot zero
		if !bytes.Equal(rec, wire) {
			t.Fatalf("oid %d ships %d bytes, EncodeWire gives %d:\n%x\n%x", want.OID, len(rec), len(wire), rec, wire)
		}
	}
	if blobs == 0 || blobs == len(made) {
		t.Errorf("%d of %d objects offloaded an image: the draw covers one side only", blobs, len(made))
	}

	var packed, records int
	for _, cls := range append(classes, edgeClass) {
		sch, err := store.schema(cls.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Scan(sch.heap, func(_ storage.RID, rec []byte) bool {
			records++
			if rec[0]&flagPacked != 0 {
				packed++
			}
			w, err := parseRecord(rec, sch)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.object()
			if err != nil {
				t.Fatal(err)
			}
			old := unpackedRecord(t, rec, sch)
			if len(rec) > len(old) {
				t.Errorf("oid %d is stored in %d bytes, unpacked in %d:\n%x\n%x", want.OID, len(rec), len(old), rec, old)
			}
			ow, err := parseRecord(old, sch)
			if err != nil {
				t.Fatalf("unpacked oid %d: %v", want.OID, err)
			}
			got, err := ow.object()
			if err != nil || !sameObject(got, want) || ow.epoch != w.epoch {
				t.Errorf("unpacked oid %d reads as %+v at epoch %d, %v; want %+v at %d", want.OID, got, ow.epoch, err, want, w.epoch)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if records != len(made) || packed == 0 || packed == records {
		t.Errorf("%d of %d stored records packed, %d objects made: the draw covers one side only", packed, records, len(made))
	}

	ids, err := st.Blobs().IDs()
	if err != nil {
		t.Fatal(err)
	}
	var referenced int
	for _, o := range made {
		for _, v := range o.Attrs {
			if img, ok := v.(value.Image); ok && img.Img != nil {
				referenced++
			}
		}
	}
	if len(ids) != referenced {
		t.Errorf("%d blobs on disk, %d referenced: the refused objects left some behind", len(ids), referenced)
	}
}

var pairClass = &catalog.Class{
	Name: "pair", Kind: catalog.KindBase,
	Attrs: []catalog.Attr{
		{Name: "a", Type: value.TypeImage},
		{Name: "b", Type: value.TypeImage},
	},
	Frame: sptemp.DefaultFrame, HasSpatial: true,
}

// TestEncodeFailureRemovesBlobs: when a later attribute of an object
// cannot be encoded, the blobs already written for its earlier ones (and
// for earlier objects of the batch) are removed with the failed batch.
func TestEncodeFailureRemovesBlobs(t *testing.T) {
	st, store := openStore(t, t.TempDir(), pairClass)
	defer st.Close()
	img := func() value.Value { return value.Image{Img: raster.MustNew(2, 2, raster.PixChar)} }
	ext := sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 1, 1))
	good := &Object{Class: "pair", Attrs: map[string]value.Value{"a": img(), "b": img()}, Extent: ext}
	bad := &Object{Class: "pair", Attrs: map[string]value.Value{"a": img(), "b": value.Image{}}, Extent: ext}
	for _, o := range []*Object{good, bad} {
		if _, err := store.Reserve(o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.ApplyBatch(BatchOps{Inserts: []*Object{good, bad}}); err == nil {
		t.Fatal("a nil image was stored")
	}
	if ids, err := st.Blobs().IDs(); err != nil || len(ids) != 0 {
		t.Errorf("blobs left by the failed batch: %v, %v", ids, err)
	}
	if store.Exists(good.OID) {
		t.Error("the batch failed but its first object exists")
	}
}

// TestOversizeRecordRefusedBeforeCommit: an object whose inline
// attributes exceed a page fails its batch as a classified attribute
// error before anything is reserved, logged or written.
func TestOversizeRecordRefusedBeforeCommit(t *testing.T) {
	f := newFixture(t)
	if _, err := f.obj.Insert(sceneObject("red", 0, sptemp.Date(1986, 1, 15))); err != nil {
		t.Fatal(err)
	}
	blobsBefore, _ := f.st.Blobs().IDs()
	pagesBefore, recsBefore := f.st.HeapStats(heapFor("landsat_tm"))
	walBefore, epochBefore := f.st.WALBytes(), f.st.Epoch()

	fits := sceneObject("nir", 100, sptemp.Date(1986, 1, 15))
	huge := sceneObject(strings.Repeat("b", storage.MaxRecordLen), 200, sptemp.Date(1986, 1, 15))
	for _, o := range []*Object{fits, huge} {
		if _, err := f.obj.Reserve(o); err != nil {
			t.Fatal(err)
		}
	}
	_, err := f.obj.ApplyBatch(BatchOps{Inserts: []*Object{fits, huge}})
	if !errors.Is(err, ErrBadAttr) || !strings.Contains(err.Error(), fmt.Sprint(huge.OID)) {
		t.Fatalf("oversize batch: %v; want ErrBadAttr naming object %d", err, huge.OID)
	}
	if ids, _ := f.st.Blobs().IDs(); !reflect.DeepEqual(ids, blobsBefore) {
		t.Errorf("blobs %v, before the batch %v", ids, blobsBefore)
	}
	if pages, recs := f.st.HeapStats(heapFor("landsat_tm")); pages != pagesBefore || recs != recsBefore {
		t.Errorf("heap at %d pages, %d records; before the batch %d, %d", pages, recs, pagesBefore, recsBefore)
	}
	if wal, epoch := f.st.WALBytes(), f.st.Epoch(); wal != walBefore || epoch != epochBefore {
		t.Errorf("WAL %d B, epoch %d; before the batch %d B, %d", wal, epoch, walBefore, epochBefore)
	}
	if f.obj.Exists(fits.OID) {
		t.Error("the batch failed but its first object exists")
	}
}

var fuzzClass = &catalog.Class{
	Name: "fz", Kind: catalog.KindBase,
	Attrs: []catalog.Attr{
		{Name: "z_name", Type: value.TypeString},
		{Name: "data", Type: value.TypeImage},
		{Name: "n", Type: value.SetOf(value.TypeInt)},
	},
}

// fuzzSeedRecords builds one record per shape the walker distinguishes.
func fuzzSeedRecords(t testing.TB) [][]byte {
	sch := newSchema(fuzzClass)
	must := func(rec []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	next := storage.BlobID(7)
	put := func([]byte) (storage.BlobID, error) { next++; return next, nil }
	rel := func(o *Object, epoch uint64) []byte {
		rec, _, err := encodeObject(sch, o, put)
		return stamp(must(rec, err), o.OID, epoch)
	}
	plain := &Object{
		OID: 5, Class: "fz",
		Attrs: map[string]value.Value{
			"z_name": value.String_(strings.Repeat("long ", 20)),
			"data":   value.Image{Img: raster.MustNew(2, 2, raster.PixChar)},
			"n":      value.Set{Elem: value.TypeInt, Items: []value.Value{value.Int(1), value.Int(-2)}},
		},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 10, 10), sptemp.Date(1986, 1, 15)),
	}
	inline := &Object{
		OID: 6, Class: "fz",
		Attrs:  map[string]value.Value{"z_name": value.String_("s"), "data": value.Box(sptemp.NewBox(0, 0, 1, 1)), "n": value.Int(4)},
		Extent: sptemp.TimelessExtent(sptemp.Frame{}, sptemp.EmptyBox()),
	}
	widest := *inline
	widest.OID = math.MaxUint64
	wireTomb := append(appendWireHeader(nil, 9, 4, "fz", sptemp.Extent{}, 0)[:20], wireFlagTombstone, 2, 0, 'f', 'z')
	relPlain := rel(plain, 3)
	w, err := parseRecord(relPlain, sch)
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		relPlain,                          // relative: packed, timed, own frame, a blob, a long value
		rel(inline, 3),                    // relative: unpacked, untimed, class frame, all inline
		encodeTombstone(5, 4),             // relative tombstone
		must(w.wire()),                    // GOB3 with a blob reference
		must(EncodeWire(inline)),          // GOB3, all inline
		wireTomb,                          // GOB3 tombstone
		{},                                // empty
		relPlain[:len(relPlain)-3],        // truncated
		append(rel(inline, 3), 0),         // trailing byte
		{flagRelative | 0x40, 0, 0, 0, 0}, // unknown flag
		fixedHeader(unpackedRecord(t, relPlain, sch)),       // refused, fixed header: timed, own frame, a blob
		fixedHeader(unpackedRecord(t, rel(inline, 3), sch)), // refused, fixed header, all inline
		fixedHeader(encodeTombstone(5, 4)),                  // refused, fixed-header tombstone
		unpackedRecord(t, relPlain, sch),                    // compact, unpacked: timed, own frame, a blob
		rel(&widest, math.MaxUint64),                        // widest header: 21 bytes

		// An epoch uvarint past 64 bits.
		append([]byte{flagRelative | flagCompact | flagTombstone}, bytes.Repeat([]byte{0xff}, 10)...),
	}
	relInline := rel(inline, 3)
	wi, err := parseRecord(relInline, sch)
	if err != nil {
		t.Fatal(err)
	}
	exact, refused := packedSeeds(relInline[wi.r.off:])
	return slices.Concat(seeds, exact, refused)
}

// packedSeeds builds packed records by hand around an attribute table,
// so that they may hold what encodeObject never writes. The exact ones
// hold each mask value (the odd ones timed); the refused ones a bad mask,
// a coordinate in a 10-byte uvarint, a width that takes MaxX past 2^53
// and an end-start that overflows. They are committed, in that order, as
// packed-NN under testdata/fuzz.
func packedSeeds(attrs []byte) (exact, refused [][]byte) {
	rec := func(timed bool, ext ...[]byte) []byte {
		flags := byte(flagRelative | flagCompact | flagPacked)
		if timed {
			flags |= flagTimed
		}
		return slices.Concat(appendHeader(nil, flags, 3, 6), slices.Concat(ext...), attrs)
	}
	v := func(x int64) []byte { return binary.AppendVarint(nil, x) }
	raw := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5))
	for mask := byte(0); mask < 16; mask++ {
		ext := [][]byte{{mask}}
		for i := 0; i < 4; i++ {
			if mask&(1<<i) != 0 {
				ext = append(ext, v(int64(i)-1))
			} else {
				ext = append(ext, raw)
			}
		}
		timed := mask%2 == 1
		if timed {
			ext = append(ext, v(int64(sptemp.Date(1986, 1, 15))), v(86400))
		}
		exact = append(exact, rec(timed, ext...))
	}
	return exact, [][]byte{
		rec(false, []byte{0x10}, raw, raw, raw, raw),                                       // a mask bit past MaxY
		rec(false, []byte{0x01}, binary.AppendUvarint(nil, math.MaxUint64), raw, raw, raw), // MinX in a 10-byte uvarint
		rec(false, []byte{0x05}, v(maxExact), raw, v(1), raw),                              // MaxX = 2^53 + 1
		rec(true, []byte{0x0f}, v(0), v(0), v(0), v(0), v(math.MaxInt64), v(1)),            // end = MaxInt64 + 1
	}
}

// TestPackedExtentRefused: the reader takes a packed extent under any
// mask and refuses one encodeObject never writes, so that what it reads
// is exactly what was written.
func TestPackedExtentRefused(t *testing.T) {
	sch := newSchema(fuzzClass)
	exact, refused := packedSeeds(nil) // the header and extent are all parseRecord reads
	for _, rec := range exact {
		if _, err := parseRecord(rec, sch); err != nil {
			t.Errorf("%x: %v", rec, err)
		}
	}
	for _, rec := range refused {
		if w, err := parseRecord(rec, sch); err == nil {
			t.Errorf("%x read as %+v", rec, w.ext)
		}
	}
}

func hasImage(o *Object) bool {
	for _, v := range o.Attrs {
		switch v.(type) {
		case blobRef, value.Image:
			return true
		}
	}
	return false
}

// FuzzRecordDecode drives arbitrary bytes through the one record walker
// as a heap record and as a wire record: every consumer stays inside the
// buffer (a panic fails the run), a heap record parses only in the
// compact form and a wire record only as GOB3, and decode → encode →
// stamp → decode
// converges on one byte string per form, whose raw-path splice is the
// EncodeWire bytes, and which stamping again at the same epoch leaves as
// it was.
func FuzzRecordDecode(f *testing.F) {
	for _, rec := range fuzzSeedRecords(f) {
		f.Add(rec)
	}
	fz := newSchema(fuzzClass)
	f.Fuzz(func(t *testing.T, rec []byte) {
	forms:
		for _, from := range []*schema{fz, nil} { // as a heap record, as a wire record
			w, err := parseRecord(rec, from)
			if err != nil {
				continue
			}
			if from != nil && rec[0]&(flagRelative|flagCompact) != flagRelative|flagCompact ||
				from == nil && !bytes.HasPrefix(rec, []byte(wireMagic)) {
				t.Fatalf("%x parsed (as a heap record: %v) though not in that side's form", rec, from != nil)
			}
			ids := w
			_, _ = ids.blobIDs()
			if from != nil {
				wire := w
				_, _ = wire.wire()
			}
			obj, err := w.object()
			if err != nil || hasImage(obj) || len(obj.Attrs) != len(fuzzClass.Attrs) {
				continue
			}
			for _, a := range fuzzClass.Attrs {
				if _, ok := obj.Attrs[a.Name]; !ok {
					continue forms
				}
			}
			obj.Class = fz.cls.Name
			if !obj.Extent.HasTime {
				obj.Extent.TimeIv = sptemp.Interval{} // GOB3 has the slot regardless; the relative form keeps no interval for an untimed object
			}

			buf, _, err := encodeObject(fz, obj, noBlobs)
			if err != nil {
				t.Fatalf("re-encode of a decoded object: %v", err)
			}
			rel1 := slices.Clone(stamp(buf, obj.OID, w.epoch))
			w1, err := parseRecord(rel1, fz)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if w1.oid != obj.OID || w1.epoch != w.epoch {
				t.Fatalf("stamped oid %d epoch %d, read back %d, %d", obj.OID, w.epoch, w1.oid, w1.epoch)
			}
			stamp(buf, obj.OID, ^w.epoch) // another epoch, mostly another header width
			if again := stamp(buf, obj.OID, w.epoch); !bytes.Equal(again, rel1) {
				t.Fatalf("stamping again changed the record:\n%x\n%x", rel1, again)
			}
			spliced, err := w1.wire()
			if err != nil {
				t.Fatalf("splice: %v", err)
			}
			wire1, err := EncodeWire(obj)
			if err != nil {
				t.Fatalf("wire re-encode: %v", err)
			}
			binary.LittleEndian.PutUint64(wire1[12:], w.epoch) // EncodeWire leaves the epoch slot zero
			if !bytes.Equal(spliced, wire1) {
				t.Fatalf("splice and EncodeWire differ:\n%x\n%x", spliced, wire1)
			}
			obj2, err := DecodeWire(wire1, nil)
			if err != nil {
				t.Fatalf("wire re-decode: %v", err)
			}
			buf2, _, err := encodeObject(fz, obj2, noBlobs)
			if err != nil {
				t.Fatalf("re-encode of the wire decode: %v", err)
			}
			if rel2 := stamp(buf2, obj2.OID, w.epoch); !bytes.Equal(rel1, rel2) {
				t.Fatalf("did not converge:\n%x\n%x", rel1, rel2)
			}
		}
	})
}
