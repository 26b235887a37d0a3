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
// bytes — the range the loaded gauge sets of the benchmark live in.
// ingest-verify's epochs run past 2^14 and take three bytes, so its
// records are a byte longer.
func TestRecordBytes(t *testing.T) {
	const oid, epoch = 1<<21 - 1, 1<<14 - 1
	gauge := func(box sptemp.Box, mm float64) *Object {
		return &Object{
			OID: oid, Class: "gauge",
			Attrs:  map[string]value.Value{"mm": value.Float(mm)},
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
		{"a gauge with an integral reading", gaugeClass, gauge(sptemp.NewBox(20, 0, 30, 10), 999_999), 15, false},
		{"a gauge", gaugeClass, gauge(sptemp.NewBox(20, 0, 30, 10), 12.5), 19, false}, // 47 unpacked
		{"a Landsat scene", sceneClass, scene, 27, false},                             // 61 unpacked
		{"a gauge with no integral coordinate", gaugeClass, gauge(sptemp.NewBox(20.5, 0.5, 30.5, 10.5), 12.5), 47, true},
	} {
		sch := newSchema(c.cls)
		var err error
		if buf, _, err = appendObject(nil, sch, c.obj, put); err != nil {
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
// unpacked, as appendObject writes it when packing would not shorten it:
// flag 0x08 and the mask bits clear, the box as four f64s and, when
// timed, the interval as two i64s.
func unpackedRecord(t testing.TB, rec []byte, sch *schema) []byte {
	w, err := parseRecord(rec, sch)
	if err != nil {
		t.Fatal(err)
	}
	flags := rec[0] & (flagTombstone | flagTimed | flagOwnFrame)
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
// stores wrote, which a heap no longer holds: flags with 0x80 set and
// 0x08 clear, a packed extent at 0x10, then the epoch and the OID as
// u64s, and a packed extent's mask as a byte of its own.
func fixedHeader(rec []byte) []byte {
	epoch, n := binary.Uvarint(rec[1:])
	oid, m := binary.Uvarint(rec[1+n:])
	flags, mask := 0x80|rec[0]&(flagTombstone|flagTimed|flagOwnFrame), []byte(nil)
	if rec[0]&flagPacked != 0 {
		flags, mask = flags|0x10, []byte{rec[0] >> flagMaskShift}
	}
	out := binary.LittleEndian.AppendUint64([]byte{flags}, epoch)
	out = binary.LittleEndian.AppendUint64(out, oid)
	return slices.Concat(out, mask, rec[1+n+m:])
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
	buf, _, err := appendObject(nil, sch, obj, noBlobs)
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
		if rng.IntN(3) == 0 {
			return value.Float(rng.IntN(2001) - 1000) // packed
		}
		return value.Float(rng.NormFloat64() * 1e3)
	case value.TypeString:
		return value.String_(strings.Repeat("x", rng.IntN(200))) // past the 64-byte one-byte tag
	case value.TypeBool:
		return value.Bool(rng.IntN(2) == 0)
	case value.TypeAbsTime:
		return value.AbsTime(sptemp.Date(1980+rng.IntN(20), time.Month(1+rng.IntN(12)), 1+rng.IntN(28)))
	case value.TypeInterval:
		return value.Interval(sptemp.Interval{Start: sptemp.Date(1986, 1, 1), End: sptemp.Date(1986+rng.IntN(5), 6, 1)})
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

// typedClass holds typedObjects: an attribute of each typed payload
// form but bool and image, and two set-typed ones.
var typedClass = &catalog.Class{
	Name: "typed", Kind: catalog.KindBase,
	Attrs: []catalog.Attr{
		{Name: "f", Type: value.TypeFloat},
		{Name: "i", Type: value.TypeInt},
		{Name: "s", Type: value.TypeString},
		{Name: "t", Type: value.TypeAbsTime},
		{Name: "fs", Type: value.SetOf(value.TypeFloat)},
		{Name: "imgs", Type: value.SetOf(value.TypeImage)},
	},
}

// typedObjects put every edge coordinate, a signalling NaN, both
// subnormal ends and some small integers in a float attribute, and the
// int64, string and AbsTime extremes in the others. Their set-typed
// attributes hold a singleton scalar or a set in turn, and an offloaded
// singleton image or an inline set of one.
func typedObjects() []*Object {
	floats := append(slices.Clone(edgeCoords),
		math.Float64frombits(0x7ff0_0000_0000_0001), // a signalling NaN
		-math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // the largest subnormal
		0, -1, 999_999, 1<<53-1)
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 62}
	strs := []string{"", strings.Repeat("k", 4096)}
	times := []int64{math.MinInt64, math.MaxInt64, 0}
	var out []*Object
	for k, f := range floats {
		o := &Object{Class: typedClass.Name, Attrs: map[string]value.Value{
			"f": value.Float(f),
			"i": value.Int(ints[k%len(ints)]),
			"s": value.String_(strs[k%len(strs)]),
			"t": value.AbsTime(times[k%len(times)]),
		}}
		o.Extent.Space = sptemp.NewBox(0, 0, 1, 1)
		if k%2 == 0 {
			o.Attrs["fs"] = value.Float(f)
		} else {
			o.Attrs["fs"] = value.Set{Elem: value.TypeFloat, Items: []value.Value{value.Float(f), value.Float(-f)}}
		}
		img := value.Image{Img: raster.MustNew(1+k%3, 2, raster.PixChar)}
		if k%3 == 0 {
			o.Attrs["imgs"] = img
		} else {
			o.Attrs["imgs"] = value.Set{Elem: value.TypeImage, Items: []value.Value{img}}
		}
		out = append(out, o)
	}
	return out
}

// sameObject is reflect.DeepEqual with the box and every float value
// compared bit for bit, so that a NaN equals itself and -0 differs from
// +0.
func sameObject(a, b *Object) bool {
	if a == nil || b == nil {
		return a == b
	}
	bits := func(b sptemp.Box) [4]uint64 {
		return [4]uint64{math.Float64bits(b.MinX), math.Float64bits(b.MinY), math.Float64bits(b.MaxX), math.Float64bits(b.MaxY)}
	}
	if bits(a.Extent.Space) != bits(b.Extent.Space) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for name, v := range a.Attrs {
		if !sameValue(v, b.Attrs[name]) {
			return false
		}
	}
	a2, b2 := *a, *b
	a2.Extent.Space, b2.Extent.Space = sptemp.Box{}, sptemp.Box{}
	a2.Attrs, b2.Attrs = nil, nil
	return reflect.DeepEqual(&a2, &b2)
}

// sameValue is reflect.DeepEqual with floats, in a set too, compared bit
// for bit.
func sameValue(a, b value.Value) bool {
	switch x := a.(type) {
	case value.Float:
		y, ok := b.(value.Float)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case value.Set:
		y, ok := b.(value.Set)
		return ok && x.Elem == y.Elem && slices.EqualFunc(x.Items, y.Items, sameValue)
	}
	return reflect.DeepEqual(a, b)
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

// TestRecordRoundTripProperty: over random classes and objects, extents
// at every limit of the packed form and attribute values at every limit
// of the typed forms, what was created is bit for
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
	st, store := openStore(t, dir, append(classes, edgeClass, typedClass)...)
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
	for _, o := range slices.Concat(edgeObjects(), typedObjects()) {
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
	for _, cls := range append(classes, edgeClass, typedClass) {
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

// fuzzClass has an attribute of every payload form but image: a record
// with an image attribute always references a blob, which the decode →
// encode loop cannot follow. Its set-typed "data" holds an offloaded
// image in some seeds; sceneClass's records carry the image form.
var fuzzClass = &catalog.Class{
	Name: "fz", Kind: catalog.KindBase,
	Attrs: []catalog.Attr{
		{Name: "z_name", Type: value.TypeString},
		{Name: "data", Type: value.SetOf(value.TypeImage)},
		{Name: "n", Type: value.SetOf(value.TypeInt)},
		{Name: "f", Type: value.TypeFloat},
		{Name: "i", Type: value.TypeInt},
		{Name: "b", Type: value.TypeBool},
		{Name: "t", Type: value.TypeAbsTime},
	},
}

// fuzzObjects are a fuzzClass object with an offloaded image, a raw
// float and a long string, and one all inline with a packed float and
// int64 and AbsTime extremes.
func fuzzObjects() (plain, inline *Object) {
	plain = &Object{
		OID: 5, Class: "fz",
		Attrs: map[string]value.Value{
			"z_name": value.String_(strings.Repeat("long ", 20)),
			"data":   value.Image{Img: raster.MustNew(2, 2, raster.PixChar)},
			"n":      value.Set{Elem: value.TypeInt, Items: []value.Value{value.Int(1), value.Int(-2)}},
			"f":      value.Float(12.5),
			"i":      value.Int(-7),
			"b":      value.Bool(true),
			"t":      value.AbsTime(sptemp.Date(1986, 1, 15)),
		},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 10, 10), sptemp.Date(1986, 1, 15)),
	}
	inline = &Object{
		OID: 6, Class: "fz",
		Attrs: map[string]value.Value{
			"z_name": value.String_("s"),
			"data":   value.Set{Elem: value.TypeImage, Items: []value.Value{}},
			"n":      value.Int(4),
			"f":      value.Float(-3),
			"i":      value.Int(math.MinInt64),
			"b":      value.Bool(false),
			"t":      value.AbsTime(math.MaxInt64),
		},
		Extent: sptemp.TimelessExtent(sptemp.Frame{}, sptemp.EmptyBox()),
	}
	return plain, inline
}

// spliceAttr returns a compact record with the stored payload of
// attribute i replaced by payload.
func spliceAttr(t testing.TB, rec []byte, sch *schema, i int, payload []byte) []byte {
	w, err := parseRecord(rec, sch)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < i; j++ {
		w.next()
	}
	from := w.r.off
	w.next()
	if err := w.r.err; err != nil {
		t.Fatal(err)
	}
	return slices.Concat(rec[:from], payload, rec[w.r.off:])
}

// malformedPayloads are payloads no appendObject writes, each for the
// fuzzClass attribute it names.
var malformedPayloads = []struct {
	what    string
	attr    int
	payload []byte
}{
	{"a bool byte of 2", 5, []byte{2}},
	{"a packed float of 2^53+1", 3, binary.AppendUvarint(nil, (1<<53+1)<<2)},
	{"a packed float of -2^53-1", 3, binary.AppendUvarint(nil, (1<<54+1)<<1)},
	{"a packed float in a 10-byte uvarint", 3, binary.AppendUvarint(nil, math.MaxUint64-1)},
	{"a float marker of 0x03", 3, append([]byte{0x03}, make([]byte, 8)...)},
	{"a float marker of 1 in two bytes", 3, append([]byte{0x81, 0x00}, make([]byte, 8)...)},
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
		rec, _, err := appendObject(nil, sch, o, put)
		return stamp(must(rec, err), o.OID, epoch)
	}
	plain, inline := fuzzObjects()
	widest := *inline
	widest.OID = math.MaxUint64
	scene := &Object{
		OID: 9, Class: "landsat_tm",
		Attrs:  map[string]value.Value{"band": value.String_("red"), "data": value.Image{Img: raster.MustNew(2, 2, raster.PixChar)}},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(3000, 0, 3100, 100), sptemp.Date(1986, 1, 15)),
	}
	sceneRec, _, err := appendObject(nil, newSchema(sceneClass), scene, put)
	sceneRec = stamp(must(sceneRec, err), scene.OID, 3)
	wireTomb := append(appendWireHeader(nil, 9, 4, "fz", sptemp.Extent{}, 0)[:20], wireFlagTombstone, 2, 0, 'f', 'z')
	relPlain := rel(plain, 3)
	relInline := rel(inline, 3)
	w, err := parseRecord(relPlain, sch)
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		relPlain,                          // relative: packed, timed, own frame, a blob, a long value, a raw float
		relInline,                         // relative: unpacked, untimed, class frame, all inline, a packed float
		encodeTombstone(5, 4),             // relative tombstone
		must(w.wire()),                    // GOB3 with a blob reference
		must(EncodeWire(inline)),          // GOB3, all inline
		wireTomb,                          // GOB3 tombstone
		sceneRec,                          // relative, as a scene: a string and an image
		{},                                // empty
		relPlain[:len(relPlain)-3],        // truncated
		append(rel(inline, 3), 0),         // trailing byte
		{0x40, 0, 0, 0, 0},                // mask bits without a packed extent
		{flagTombstone | flagTimed, 3, 5}, // a tombstone with another flag
		fixedHeader(unpackedRecord(t, relPlain, sch)),  // refused, fixed header: timed, own frame, a blob
		fixedHeader(unpackedRecord(t, relInline, sch)), // refused, fixed header, all inline
		fixedHeader(encodeTombstone(5, 4)),             // refused, fixed-header tombstone
		unpackedRecord(t, relPlain, sch),               // compact, unpacked: timed, own frame, a blob
		rel(&widest, math.MaxUint64),                   // widest header: 21 bytes

		// An epoch uvarint past 64 bits.
		append([]byte{flagTombstone}, bytes.Repeat([]byte{0xff}, 10)...),
	}
	for _, m := range malformedPayloads { // refused
		seeds = append(seeds, spliceAttr(t, relInline, sch, m.attr, m.payload))
	}
	wi, err := parseRecord(relInline, sch)
	if err != nil {
		t.Fatal(err)
	}
	exact, refused := packedSeeds(relInline[wi.r.off:])
	return slices.Concat(seeds, exact, refused)
}

// packedSeeds builds packed records by hand around an attribute table,
// so that they may hold what appendObject never writes. The exact ones
// hold each mask value (the odd ones timed); the refused ones mask bits
// on an unpacked extent, a coordinate in a 10-byte uvarint, a width that
// takes MaxX past 2^53 and an end-start that overflows. They are
// committed, in that order, as packed-NN under testdata/fuzz.
func packedSeeds(attrs []byte) (exact, refused [][]byte) {
	rec := func(timed bool, mask byte, ext ...[]byte) []byte {
		flags := flagPacked | mask<<flagMaskShift
		if timed {
			flags |= flagTimed
		}
		return slices.Concat(appendHeader(nil, flags, 3, 6), slices.Concat(ext...), attrs)
	}
	v := func(x int64) []byte { return binary.AppendVarint(nil, x) }
	raw := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5))
	for mask := byte(0); mask < 16; mask++ {
		var ext [][]byte
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
		exact = append(exact, rec(timed, mask, ext...))
	}
	unpacked := slices.Concat(appendHeader(nil, 0x01<<flagMaskShift, 3, 6), raw, raw, raw, raw, attrs)
	return exact, [][]byte{
		unpacked, // a mask bit on an unpacked extent
		rec(false, 0x01, binary.AppendUvarint(nil, math.MaxUint64), raw, raw, raw), // MinX in a 10-byte uvarint
		rec(false, 0x05, v(maxExact), raw, v(1), raw),                              // MaxX = 2^53 + 1
		rec(true, 0x0f, v(0), v(0), v(0), v(0), v(math.MaxInt64), v(1)),            // end = MaxInt64 + 1
	}
}

// TestPackedExtentRefused: the reader takes a packed extent under any
// mask and refuses one appendObject never writes, so that what it reads
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

// TestTypedPayloadRefused: an attribute payload appendObject never
// writes fails every walk over the record with an error — the full
// decode, the blob scan the reopen makes and the raw path's splice —
// and is never read as some other value.
func TestTypedPayloadRefused(t *testing.T) {
	sch := newSchema(fuzzClass)
	_, inline := fuzzObjects()
	buf, _, err := appendObject(nil, sch, inline, noBlobs)
	if err != nil {
		t.Fatal(err)
	}
	good := stamp(buf, inline.OID, 3)
	for _, m := range malformedPayloads {
		t.Run(m.what, func(t *testing.T) {
			rec := spliceAttr(t, good, sch, m.attr, m.payload)
			walks := map[string]func(w record) error{
				"object":  func(w record) error { _, err := w.object(); return err },
				"blobIDs": func(w record) error { _, err := w.blobIDs(); return err },
				"wire":    func(w record) error { _, err := w.wire(); return err },
			}
			for name, walk := range walks {
				w, err := parseRecord(rec, sch)
				if err != nil {
					t.Fatalf("header: %v", err)
				}
				if err := walk(w); err == nil {
					t.Errorf("%s of %x succeeded", name, rec)
				}
			}
		})
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
	fz, scene := newSchema(fuzzClass), newSchema(sceneClass)
	f.Fuzz(func(t *testing.T, rec []byte) {
		for _, from := range []*schema{fz, scene, nil} { // as a heap record of either class, as a wire record
			w, err := parseRecord(rec, from)
			if err != nil {
				continue
			}
			if from != nil && (rec[0]&flagPacked == 0 && rec[0]>>flagMaskShift != 0 ||
				rec[0]&flagTombstone != 0 && rec[0] != flagTombstone) ||
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
			if err != nil || from == scene || hasImage(obj) {
				continue
			}
			obj.Class = fz.cls.Name
			if (&Store{}).validate(fz.cls, obj) != nil {
				continue // a wire record's attributes need not be fuzzClass's
			}
			if !obj.Extent.HasTime {
				obj.Extent.TimeIv = sptemp.Interval{} // GOB3 has the slot regardless; the relative form keeps no interval for an untimed object
			}

			buf, _, err := appendObject(nil, fz, obj, noBlobs)
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
			buf2, _, err := appendObject(nil, fz, obj2, noBlobs)
			if err != nil {
				t.Fatalf("re-encode of the wire decode: %v", err)
			}
			if rel2 := stamp(buf2, obj2.OID, w.epoch); !bytes.Equal(rel1, rel2) {
				t.Fatalf("did not converge:\n%x\n%x", rel1, rel2)
			}
		}
	})
}
