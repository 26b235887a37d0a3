package object

// Record forms. An object version exists as bytes in two forms: the
// compact class-relative form, the one form the store writes and reads,
// and the self-describing form "GOB3" that leaves the package.
//
// The compact class-relative form is what a heap holds. Like a tuple in
// a relation, it does not repeat what its class says: the heap it lies
// in names the class, and the (immutable) catalog entry gives the
// attribute names, their order, their types and, for a spatial class,
// the frame. Nor does it spend fixed-width words on small numbers. Its
// layout, and what a reader refuses, is README's "On-disk format 6",
// *Object record*. appendObject packs an extent only when that is
// shorter than the raw form; a raw coordinate or float keeps any bit
// pattern (NaN payloads, ±Inf, -0, subnormals). A flags byte with mask
// bits but no packed extent is refused, so GOB3, whose 'G' is 0x47,
// never reads as a heap record.
//
// The self-describing form "GOB3" is what leaves the package — the wire,
// the federation relay. The store never writes it to a heap, and never
// reads it from one:
//
//	magic "GOB3", oid u64, epoch u64, flags u8 (0x01 tombstone),
//	classLen u16, class,
//	[tombstone records end here]
//	extent: frameSysLen u16 + sys, frameUnitLen u16 + unit,
//	        4 x f64 box, hasTime u8, 2 x i64 interval,
//	nattrs u16, then per attribute in ascending name order:
//	        nameLen u16, name, kind u8 (0 inline, 1 blob),
//	        inline: valLen u32 + value.Encode bytes
//	        blob:   blobID u64, the image travelling beside the record
//	                as its stored raster.Pack bytes
//
// epoch is the record's commit epoch — the MVCC version stamp. The epoch
// is not known until the enclosing batch reserves it, so appendObject
// leaves headroom in front of the body and stamp writes the header there,
// right-aligned against the body, once it is. parseRecord is the one
// walker over both forms, the form chosen by where the record came from;
// the full decode, the extent check, the reopen scan and the raw path all
// start from it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"gaea/internal/catalog"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

const (
	wireMagic         = "GOB3"
	wireFlagTombstone = 0x01

	flagTombstone = 0x01
	flagTimed     = 0x02
	flagOwnFrame  = 0x04
	flagPacked    = 0x08
	flagMaskShift = 4 // the packed box mask's place in the flags

	// maxExact bounds a packed box coordinate or float: every integer of
	// at most this magnitude is a float64.
	maxExact = 1 << 53

	// floatRaw marks a float attribute stored as its raw f64: a packed
	// one is a uvarint with its low bit clear.
	floatRaw = 0x01

	// maxHeader is the widest record header: flags + epoch + oid as
	// uvarints.
	maxHeader = 1 + 2*binary.MaxVarintLen64
)

// headroom is the room appendObject leaves in front of the record body
// of object oid for stamp: the widest header of that OID, its epoch not
// yet known.
func headroom(oid OID) int {
	return 1 + binary.MaxVarintLen64 + (bits.Len64(uint64(oid)|1)+6)/7
}

// schema is what a class contributes to its records: the parts a relative
// record leaves out, worked out once per class. Class definitions are
// never overwritten, so a schema is valid for the life of the store.
type schema struct {
	cls  *catalog.Class
	heap string
	// num is the class number rows carry: the schema's index in
	// Store.byNum.
	num uint16
	// byName lists indexes into cls.Attrs in ascending name order: the
	// attribute order of the self-describing form.
	byName []int
	// forms holds the payload form of each of cls.Attrs.
	forms []form
	// wireFixed is the length of a GOB3 record of this class in the
	// class's frame, less the attribute payloads.
	wireFixed int
}

func newSchema(cls *catalog.Class) *schema {
	sch := &schema{cls: cls, heap: heapFor(cls.Name), byName: make([]int, len(cls.Attrs)), forms: make([]form, len(cls.Attrs))}
	for i, a := range cls.Attrs {
		sch.byName[i], sch.forms[i] = i, formOf(a.Type)
	}
	sort.Slice(sch.byName, func(a, b int) bool {
		return cls.Attrs[sch.byName[a]].Name < cls.Attrs[sch.byName[b]].Name
	})
	sch.wireFixed = 4 + 8 + 8 + 1 + 2 + len(cls.Name) + // magic, oid, epoch, flags, class
		2 + len(cls.Frame.System) + 2 + len(cls.Frame.Unit) + 4*8 + 1 + 2*8 + 2 // extent, nattrs
	for _, a := range cls.Attrs {
		sch.wireFixed += 2 + len(a.Name) + 1
	}
	return sch
}

// schema returns the class's schema, building it and numbering it under
// mu on first use. Callers do not hold mu.
func (s *Store) schema(class string) (*schema, error) {
	if sch, ok := s.schemas.Load(class); ok {
		return sch.(*schema), nil
	}
	cls, err := s.cat.Class(class)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sch, ok := s.schemas.Load(class); ok {
		return sch.(*schema), nil
	}
	if len(s.byNum) > math.MaxUint16 {
		return nil, fmt.Errorf("object: class %s: the store holds %d classes already", class, len(s.byNum))
	}
	sch := newSchema(cls)
	sch.num = uint16(len(s.byNum))
	s.byNum = append(s.byNum, sch)
	s.schemas.Store(class, sch)
	return sch, nil
}

// record is a parsed record header with a cursor at its attribute table.
// The attribute methods (object, blobIDs, wire) consume the cursor, so a
// record serves one of them. sch is set for a record read from a heap,
// which is in the compact form, and nil for a GOB3 one.
type record struct {
	oid   OID
	epoch uint64
	del   bool
	class string
	ext   sptemp.Extent

	sch  *schema
	n, i int // attributes in the table, attributes read
	r    reader
}

// form is how a compact record lays out an attribute's payload, fixed
// by the attribute's catalog type.
type form uint8

const (
	formTagged  form = iota // uvarint(len<<1 | isBlob), then value.Encode bytes or a blob id
	formFloat               // a packed integer, or floatRaw and the raw f64
	formInt                 // zig-zag varint
	formAbsTime             // zig-zag varint
	formBool                // u8, 0 or 1
	formString              // uvarint len, then the bytes
	formImage               // uvarint blob id
)

func formOf(t value.Type) form {
	switch t {
	case value.TypeFloat:
		return formFloat
	case value.TypeInt:
		return formInt
	case value.TypeAbsTime:
		return formAbsTime
	case value.TypeBool:
		return formBool
	case value.TypeString:
		return formString
	case value.TypeImage:
		return formImage
	}
	return formTagged
}

// attr is one entry of a record's attribute table, its value undecoded.
// A blob reference holds its id in bits. Otherwise a formTagged entry
// (every GOB3 one) holds its value.Encode bytes in data, a string its
// bytes in data, and the other forms their value in bits: an int or
// abstime as its two's complement, a float as its IEEE bits, a bool as 0
// or 1.
type attr struct {
	name string
	form form
	blob bool
	bits uint64
	data []byte
}

// value decodes the entry: an offloaded image comes back as a blobRef
// placeholder.
func (a attr) value() (value.Value, error) {
	switch {
	case a.blob:
		return blobRef{id: storage.BlobID(a.bits)}, nil
	case a.form == formFloat:
		return value.Float(math.Float64frombits(a.bits)), nil
	case a.form == formInt:
		return value.Int(int64(a.bits)), nil
	case a.form == formAbsTime:
		return value.AbsTime(int64(a.bits)), nil
	case a.form == formBool:
		return value.Bool(a.bits != 0), nil
	case a.form == formString:
		return value.String_(a.data), nil
	}
	return value.Decode(a.data)
}

// wireLen is the length of the entry's GOB3 payload after its name and
// kind byte: a blob id, or a value's length word and value.Encode bytes.
func (a attr) wireLen() int {
	switch {
	case a.blob:
		return 8
	case a.form == formFloat, a.form == formInt, a.form == formAbsTime:
		return 4 + 1 + 8
	case a.form == formBool:
		return 4 + 1 + 1
	case a.form == formString:
		return 4 + 1 + 4 + len(a.data)
	}
	return 4 + len(a.data)
}

// appendWire appends the entry's GOB3 payload, writing a typed value's
// value.Encode bytes straight from the stored form.
func (a attr) appendWire(buf []byte) []byte {
	if a.blob {
		return binary.LittleEndian.AppendUint64(append(buf, 1), a.bits)
	}
	buf = binary.LittleEndian.AppendUint32(append(buf, 0), uint32(a.wireLen()-4))
	switch a.form {
	case formFloat:
		return value.AppendFloat(buf, math.Float64frombits(a.bits))
	case formInt:
		return value.AppendInt(buf, int64(a.bits))
	case formAbsTime:
		return value.AppendAbsTime(buf, int64(a.bits))
	case formBool:
		return value.AppendBool(buf, a.bits != 0)
	case formString:
		return value.AppendString(buf, a.data)
	}
	return append(buf, a.data...)
}

// parseRecord reads the header of a record. sch is the class of the heap
// the record came from, which holds compact records only; it is nil for
// a record that arrived from outside (the wire), which must then be
// GOB3.
func parseRecord(rec []byte, sch *schema) (record, error) {
	w := record{sch: sch, r: reader{buf: rec}}
	switch {
	case len(rec) == 0:
		return w, errors.New("object: empty record")
	case sch != nil:
		w.parseRelative()
	default:
		w.parseWire()
	}
	return w, w.r.err
}

func (w *record) parseRelative() {
	r := &w.r
	flags := r.u8()
	if flags&flagPacked == 0 && flags>>flagMaskShift != 0 ||
		flags&flagTombstone != 0 && flags != flagTombstone {
		r.failf("object: record flags %#x are not the compact form", flags)
		return
	}
	w.class = w.sch.cls.Name
	w.epoch = r.uvarint()
	w.oid = OID(r.uvarint())
	if flags&flagTombstone != 0 {
		w.del = true
		return
	}
	w.ext.HasTime = flags&flagTimed != 0
	if flags&flagPacked != 0 {
		w.parsePacked(flags >> flagMaskShift)
	} else {
		w.ext.Space = sptemp.Box{MinX: r.f64(), MinY: r.f64(), MaxX: r.f64(), MaxY: r.f64()}
		if w.ext.HasTime {
			w.ext.TimeIv = sptemp.Interval{Start: sptemp.AbsTime(r.u64()), End: sptemp.AbsTime(r.u64())}
		}
	}
	w.ext.Frame = w.sch.cls.Frame
	if flags&flagOwnFrame != 0 {
		w.ext.Frame = sptemp.Frame{System: sptemp.RefSystem(r.str16()), Unit: sptemp.RefUnit(r.str16())}
	}
	w.n = len(w.sch.cls.Attrs)
}

// parsePacked reads a packed extent under the box mask from the flags:
// the box, and the interval when the record is timed.
func (w *record) parsePacked(mask byte) {
	r := &w.r
	var c [4]float64
	var n [4]int64
	for i := range c {
		if mask&(1<<i) == 0 {
			c[i] = r.f64()
			continue
		}
		v := r.varint()
		if i >= 2 && mask&(1<<(i-2)) != 0 {
			v += n[i-2] // a width from the min end; if this wraps, v lands near ±2^63
		}
		if v < -maxExact || v > maxExact {
			r.failf("object: packed box coordinate %d outside ±2^53", v)
			return
		}
		n[i], c[i] = v, float64(v)
	}
	w.ext.Space = sptemp.Box{MinX: c[0], MinY: c[1], MaxX: c[2], MaxY: c[3]}
	if w.ext.HasTime {
		start, width := r.varint(), r.varint()
		end := start + width
		if (end < start) != (width < 0) {
			r.failf("object: packed interval %d + %d overflows", start, width)
			return
		}
		w.ext.TimeIv = sptemp.Interval{Start: sptemp.AbsTime(start), End: sptemp.AbsTime(end)}
	}
}

func (w *record) parseWire() {
	r := &w.r
	if magic := r.bytes(4); magic != nil && string(magic) != wireMagic {
		r.failf("object: bad object magic")
		return
	}
	w.oid = OID(r.u64())
	w.epoch = r.u64()
	w.del = r.u8()&wireFlagTombstone != 0
	w.class = string(r.bytes(int(r.u16())))
	if w.del {
		return
	}
	w.ext.Frame = sptemp.Frame{System: sptemp.RefSystem(r.str16()), Unit: sptemp.RefUnit(r.str16())}
	w.ext.Space = sptemp.Box{MinX: r.f64(), MinY: r.f64(), MaxX: r.f64(), MaxY: r.f64()}
	w.ext.HasTime = r.u8() == 1
	w.ext.TimeIv = sptemp.Interval{Start: sptemp.AbsTime(r.u64()), End: sptemp.AbsTime(r.u64())}
	w.n = int(r.u16())
}

// next reads the next attribute table entry; false at the end of the
// table or on a malformed record (finish tells which).
func (w *record) next() (attr, bool) {
	if w.i >= w.n {
		return attr{}, false
	}
	r := &w.r
	var a attr
	if w.sch == nil {
		a.name = r.str16()
		if a.blob = r.u8() == 1; a.blob {
			a.bits = r.u64()
		} else {
			a.data = r.bytes(int(r.u32()))
		}
		w.i++
		return a, r.err == nil
	}
	a.name, a.form = w.sch.cls.Attrs[w.i].Name, w.sch.forms[w.i]
	switch a.form {
	case formFloat:
		a.bits = r.float()
	case formInt, formAbsTime:
		a.bits = uint64(r.varint())
	case formBool:
		if a.bits = uint64(r.u8()); a.bits > 1 {
			r.failf("object: bool byte %#x", a.bits)
		}
	case formString:
		a.data = r.bytes(int(min(r.uvarint(), math.MaxInt32)))
	case formImage:
		a.blob, a.bits = true, r.uvarint()
	default:
		tag := r.uvarint()
		a.blob = tag&1 != 0
		a.data = r.bytes(int(min(tag>>1, math.MaxInt32)))
		if a.blob {
			if len(a.data) != 8 {
				r.failf("object: blob reference of %d bytes", len(a.data))
			} else {
				a.bits = binary.LittleEndian.Uint64(a.data)
			}
		}
	}
	w.i++
	return a, r.err == nil
}

// finish reports whether the walk over the attribute table ended well. A
// relative record has nothing after its last attribute; a GOB3 record
// may (the old decoder never looked).
func (w *record) finish() error {
	if w.r.err == nil && w.sch != nil && w.r.off != len(w.r.buf) {
		w.r.failf("object: %d bytes after the last attribute", len(w.r.buf)-w.r.off)
	}
	return w.r.err
}

var errTombstone = errors.New("object: tombstone record has no extent or payload")

// object decodes the record in full. Offloaded images come back as
// blobRef placeholders for the caller to resolve.
func (w *record) object() (*Object, error) {
	if w.del {
		return nil, errTombstone
	}
	obj := &Object{OID: w.oid, Class: w.class, Extent: w.ext, Attrs: make(map[string]value.Value, min(w.n, 8))}
	for a, ok := w.next(); ok; a, ok = w.next() {
		v, err := a.value()
		if err != nil {
			return nil, fmt.Errorf("object: attribute %q: %w", a.name, err)
		}
		obj.Attrs[a.name] = v
	}
	return obj, w.finish()
}

// blobIDs collects the record's blob references without decoding any
// attribute value.
func (w *record) blobIDs() ([]storage.BlobID, error) {
	var ids []storage.BlobID
	for a, ok := w.next(); ok; a, ok = w.next() {
		if a.blob {
			ids = append(ids, storage.BlobID(a.bits))
		}
	}
	return ids, w.finish()
}

// wire returns a heap record in the self-describing form: its class's
// constant parts spliced back around the stored attributes, each typed
// one written in its value.Encode form straight from its stored bytes,
// with no value.Value built. The result has the bytes EncodeWire gives
// the decoded object, plus the epoch.
func (w *record) wire() ([]byte, error) {
	if w.del {
		return nil, errTombstone
	}
	var few [8]attr
	attrs := few[:0]
	cf, f := w.sch.cls.Frame, w.ext.Frame
	size := w.sch.wireFixed + len(f.System) + len(f.Unit) - len(cf.System) - len(cf.Unit)
	for a, ok := w.next(); ok; a, ok = w.next() {
		attrs = append(attrs, a)
		size += a.wireLen()
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	buf := appendWireHeader(make([]byte, 0, size), w.oid, w.epoch, w.class, w.ext, w.n)
	for _, i := range w.sch.byName {
		buf = attrs[i].appendWire(appendStr16(buf, attrs[i].name))
	}
	return buf, nil
}

// appendHeader appends a compact record header.
func appendHeader(buf []byte, flags byte, epoch uint64, oid OID) []byte {
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, epoch)
	return binary.AppendUvarint(buf, uint64(oid))
}

// stamp writes the header of a record appendObject left unstamped — its
// flags, the commit epoch, the OID — right-aligned against the body, and
// returns the record from there: no copy of the body, no allocation.
// buf[0] holds the flags throughout (the widest header writes them there
// itself), so a record may be stamped again, at any epoch. oid is the
// OID appendObject was given.
func stamp(buf []byte, oid OID, epoch uint64) []byte {
	var a [maxHeader]byte
	hdr := appendHeader(a[:0], buf[0], epoch, oid)
	at := headroom(oid) - len(hdr)
	copy(buf[at:], hdr)
	return buf[at:]
}

// recordCap is what appendObject is expected to append for one object of
// sch, headroom included: the room a batch's arena leaves it.
func recordCap(sch *schema) int {
	return maxHeader + 4*8 + 2*binary.MaxVarintLen64 + 12*len(sch.cls.Attrs)
}

// appendObject appends an object to buf as a compact relative record,
// the headroom its header needs in front for stamp to write at commit,
// offloading images through put. The record is what it appended.
// The blob ids are returned with an error too: they name what was
// written before it (and what a failed put may have left half-written),
// for the caller to remove.
func appendObject(buf []byte, sch *schema, obj *Object, put func(data []byte) (storage.BlobID, error)) ([]byte, []storage.BlobID, error) {
	attrs := sch.cls.Attrs
	if len(obj.Attrs) != len(attrs) {
		return buf, nil, fmt.Errorf("%w: object %d has %d attributes, class %s has %d",
			ErrBadAttr, obj.OID, len(obj.Attrs), sch.cls.Name, len(attrs))
	}
	ext := &obj.Extent
	var flags byte
	if ext.HasTime {
		flags |= flagTimed
	}
	if ext.Frame != sch.cls.Frame {
		flags |= flagOwnFrame
	}
	at := len(buf)
	buf = append(buf, make([]byte, headroom(obj.OID))...)
	var mask byte
	var packed bool
	if buf, mask, packed = appendPacked(buf, ext); packed {
		flags |= flagPacked | mask<<flagMaskShift
	} else {
		buf = appendBox(buf, ext.Space)
		if ext.HasTime {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(ext.TimeIv.Start))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(ext.TimeIv.End))
		}
	}
	buf[at] = flags
	if flags&flagOwnFrame != 0 {
		buf = appendStr16(buf, string(ext.Frame.System))
		buf = appendStr16(buf, string(ext.Frame.Unit))
	}
	var blobIDs []storage.BlobID
	for i, a := range attrs {
		v, ok := obj.Attrs[a.Name]
		if !ok {
			return buf, blobIDs, fmt.Errorf("%w: object %d: attribute %q missing", ErrBadAttr, obj.OID, a.Name)
		}
		f := sch.forms[i]
		if img, ok := v.(value.Image); ok && img.Img != nil && (f == formImage || f == formTagged) {
			id, err := put(raster.Pack(img.Img))
			blobIDs = append(blobIDs, id)
			if err != nil {
				return buf, blobIDs, err
			}
			if f == formImage {
				buf = binary.AppendUvarint(buf, uint64(id))
			} else {
				buf = binary.LittleEndian.AppendUint64(append(buf, 8<<1|1), uint64(id))
			}
			continue
		}
		next, err := appendAttr(buf, f, v)
		if err != nil {
			return buf, blobIDs, fmt.Errorf("object: attribute %q (%s): %w", a.Name, a.Type, err)
		}
		buf = next
	}
	return buf, blobIDs, nil
}

// appendAttr appends an inline attribute value in form f.
func appendAttr(buf []byte, f form, v value.Value) ([]byte, error) {
	switch x := v.(type) {
	case value.Float:
		if f == formFloat {
			return appendFloat(buf, float64(x)), nil
		}
	case value.Int:
		if f == formInt {
			return binary.AppendVarint(buf, int64(x)), nil
		}
	case value.AbsTime:
		if f == formAbsTime {
			return binary.AppendVarint(buf, int64(x)), nil
		}
	case value.Bool:
		if f == formBool {
			if x {
				return append(buf, 1), nil
			}
			return append(buf, 0), nil
		}
	case value.String_:
		if f == formString {
			return append(binary.AppendUvarint(buf, uint64(len(x))), x...), nil
		}
	}
	if f != formTagged {
		if img, ok := v.(value.Image); ok && img.Img == nil {
			return nil, fmt.Errorf("%w: nil image", ErrBadAttr)
		}
		return nil, fmt.Errorf("%w: %s value", ErrBadAttr, v.Type())
	}
	mark := len(buf)
	enc, err := value.Append(append(buf, 0), v)
	if err != nil {
		return nil, err
	}
	return sealSpan(enc, mark), nil
}

// appendFloat appends a float attribute: a packable value as
// uvarint(zigzag(n)<<1), whose low bit is clear, any other as floatRaw
// and its raw bits.
func appendFloat(buf []byte, f float64) []byte {
	if packable(f) {
		n := int64(f)
		return binary.AppendUvarint(buf, uint64(n<<1^n>>63)<<1)
	}
	return binary.LittleEndian.AppendUint64(append(buf, floatRaw), math.Float64bits(f))
}

// appendPacked appends ext's box, and its interval when timed, in the
// packed form, and returns the box mask for the flags. It leaves buf as
// it was and returns false when that form would not be shorter than the
// raw one, or cannot hold the interval (an end-start that overflows).
func appendPacked(buf []byte, ext *sptemp.Extent) ([]byte, byte, bool) {
	mark, raw := len(buf), 4*8
	c := [4]float64{ext.Space.MinX, ext.Space.MinY, ext.Space.MaxX, ext.Space.MaxY}
	var n [4]int64
	var mask byte
	for i, f := range c {
		if packable(f) {
			n[i], mask = int64(f), mask|1<<i
		}
	}
	for i, f := range c {
		switch {
		case mask&(1<<i) == 0:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		case i >= 2 && mask&(1<<(i-2)) != 0:
			buf = binary.AppendVarint(buf, n[i]-n[i-2])
		default:
			buf = binary.AppendVarint(buf, n[i])
		}
	}
	if ext.HasTime {
		start, end := int64(ext.TimeIv.Start), int64(ext.TimeIv.End)
		width := end - start
		if (width < 0) != (end < start) {
			return buf[:mark], 0, false
		}
		buf = binary.AppendVarint(buf, start)
		buf = binary.AppendVarint(buf, width)
		raw += 2 * 8
	}
	if len(buf)-mark >= raw {
		return buf[:mark], 0, false
	}
	return buf, mask, true
}

// packable reports whether a box coordinate or a float attribute packs
// as an integer: integral, within ±2^53, and not -0, which an integer
// cannot tell from +0.
func packable(f float64) bool {
	return math.Abs(f) <= maxExact && f == math.Trunc(f) && (f != 0 || !math.Signbit(f))
}

// sealSpan writes uvarint(len<<1) over the one-byte placeholder at mark
// for the value appended after it, making room first when the length
// needs more than the one byte (values of 64 bytes and up).
func sealSpan(buf []byte, mark int) []byte {
	n := len(buf) - mark - 1
	var tag [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tag[:], uint64(n)<<1)
	if k > 1 {
		buf = append(buf, tag[:k-1]...)
		copy(buf[mark+k:], buf[mark+1:mark+1+n])
	}
	copy(buf[mark:], tag[:k])
	return buf
}

// encodeTombstone serialises a deletion marker for an OID at an epoch.
func encodeTombstone(oid OID, epoch uint64) []byte {
	return appendHeader(make([]byte, 0, maxHeader), flagTombstone, epoch, oid)
}

// appendWireHeader writes a GOB3 record up to and including its
// attribute count.
func appendWireHeader(buf []byte, oid OID, epoch uint64, class string, ext sptemp.Extent, nattrs int) []byte {
	buf = append(buf, wireMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(oid))
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = append(buf, 0) // flags
	buf = appendStr16(buf, class)
	buf = appendStr16(buf, string(ext.Frame.System))
	buf = appendStr16(buf, string(ext.Frame.Unit))
	buf = appendBox(buf, ext.Space)
	if ext.HasTime {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ext.TimeIv.Start))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ext.TimeIv.End))
	return binary.LittleEndian.AppendUint16(buf, uint16(nattrs))
}

func appendBox(buf []byte, b sptemp.Box) []byte {
	for _, f := range [...]float64{b.MinX, b.MinY, b.MaxX, b.MaxY} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

func appendStr16(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}
