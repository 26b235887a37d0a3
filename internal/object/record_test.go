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

// TestRecordBytes pins the stored bytes per object: a bytes-per-object
// regression fails here, not only at the benchmark's disk gate. The
// epoch and OID are the largest that still take two and three uvarint
// bytes — the range a benchmark gauge set lives in.
func TestRecordBytes(t *testing.T) {
	const oid, epoch = 1<<21 - 1, 1<<14 - 1
	gauge := &Object{
		OID: oid, Class: "gauge",
		Attrs:  map[string]value.Value{"mm": value.Float(12.5)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(20, 0, 30, 10)),
	}
	buf, _, err := encodeObject(newSchema(gaugeClass), gauge, noBlobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(stamp(buf, oid, epoch)); n > 48 {
		t.Errorf("a gauge is stored in %d bytes, want at most 48", n)
	}
	if n := len(encodeTombstone(oid, epoch)); n > 6 {
		t.Errorf("a tombstone is stored in %d bytes, want at most 6", n)
	}
	if n := testing.AllocsPerRun(100, func() { stamp(buf, oid, epoch) }); n != 0 {
		t.Errorf("stamping a record allocates %v times", n)
	}
}

// fixedHeader rewrites a compact relative record in the fixed-header
// form directories written before it hold: the same record with u64
// epoch and OID.
func fixedHeader(t testing.TB, rec []byte, sch *schema) []byte {
	w, err := parseRecord(rec, sch)
	if err != nil {
		t.Fatal(err)
	}
	n := len(appendHeader(nil, rec[0], w.epoch, w.oid))
	out := []byte{rec[0] &^ flagCompact}
	out = binary.LittleEndian.AppendUint64(out, w.epoch)
	out = binary.LittleEndian.AppendUint64(out, uint64(w.oid))
	return append(out, rec[n:]...)
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

func randomObject(rng *rand.Rand, cls *catalog.Class) *Object {
	o := &Object{Class: cls.Name, Attrs: map[string]value.Value{}}
	for _, a := range cls.Attrs {
		o.Attrs[a.Name] = randomValue(rng, a.Type)
	}
	o.Extent.Frame = cls.Frame
	if !cls.HasSpatial && rng.IntN(2) == 0 {
		o.Extent.Frame = sptemp.DefaultFrame // foreign to the class: stored in the record
	}
	x := float64(rng.IntN(1000))
	o.Extent.Space = sptemp.NewBox(x, 0, x+10, 10)
	if !cls.HasSpatial && rng.IntN(2) == 0 {
		o.Extent.Space = sptemp.EmptyBox()
	}
	if cls.HasTemporal || rng.IntN(2) == 0 {
		o.Extent.HasTime = true
		o.Extent.TimeIv = sptemp.Instant(sptemp.Date(1986, time.Month(1+rng.IntN(12)), 1))
	}
	return o
}

// TestRecordRoundTripProperty: over random classes and objects, what was
// created is what GetAt returns after a reopen and what the raw path
// ships, and the shipped record is byte for byte the size EncodeWire
// gives — the relative form changes what is stored, not what is sent.
func TestRecordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 93))
	dir := t.TempDir()
	var classes []*catalog.Class
	for i := 0; i < 40; i++ {
		classes = append(classes, randomClass(rng, i))
	}
	st, store := openStore(t, dir, classes...)
	var made []*Object
	for _, cls := range classes {
		for i := 0; i < 4; i++ {
			o := randomObject(rng, cls)
			if _, err := store.Insert(o); err != nil {
				t.Fatalf("insert %+v into %+v: %v", o, cls, err)
			}
			made = append(made, o)
		}
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
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("GetAt(%d) = %+v, %v; want %+v", want.OID, got, err, want)
		}
		rec, payloads, err := store.GetRawAt(want.OID, epoch)
		if err != nil {
			t.Fatalf("GetRawAt(%d): %v", want.OID, err)
		}
		if got, err := DecodeWire(rec, payloads); err != nil || !reflect.DeepEqual(got, want) {
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
	return [][]byte{
		relPlain,                            // relative: timed, own frame, a blob, a long value
		rel(inline, 3),                      // relative: untimed, class frame, all inline
		encodeTombstone(5, 4),               // relative tombstone
		must(w.wire()),                      // GOB3 with a blob reference
		must(EncodeWire(inline)),            // GOB3, all inline
		wireTomb,                            // GOB3 tombstone
		{},                                  // empty
		relPlain[:len(relPlain)-3],          // truncated
		append(rel(inline, 3), 0),           // trailing byte
		{flagRelative | 0x40, 0, 0, 0, 0},   // unknown flag
		fixedHeader(t, relPlain, sch),       // fixed header: timed, own frame, a blob
		fixedHeader(t, rel(inline, 3), sch), // fixed header, all inline
		fixedHeader(t, encodeTombstone(5, 4), sch), // fixed-header tombstone
		rel(&widest, math.MaxUint64),               // widest header: 21 bytes
		append([]byte{flagRelative | flagCompact | flagTombstone}, bytes.Repeat([]byte{0xff}, 10)...), // epoch uvarint past 64 bits
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
// buffer (a panic fails the run), and decode → encode → stamp → decode
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
			ids, wire := w, w
			_, _ = ids.blobIDs()
			_, _ = wire.wire()
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
