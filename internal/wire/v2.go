package wire

// The codec: hand-rolled binary frames, multiplexing many outstanding
// requests over one connection. Everything is encoded with varints and
// length-delimited byte strings — no reflection, no per-frame encoder
// state, pooled frame buffers, so the steady-state response path
// allocates nothing.
//
// Framing:
//
//	len u32 BE | type u8 | requestID uvarint | body
//
// `len` counts everything after the 4-byte prefix. Frame types:
//
//	Hello/HelloAck  handshake (preceded by the 8-byte magic preamble)
//	Req             one request; body = EncodeRequest
//	Resp            completion for a request ID; body = EncodeResponse.
//	                For a streaming request it signals an error end.
//	                ID 0 is connection-level: the peer is refusing the
//	                connection itself (e.g. over the connection limit).
//	Page            one server-push stream page for a request ID
//	Credit          flow control: grants N more pages to a stream
//	Cancel          the client abandons a request/stream
//
// Handshake: the client opens with the 8-byte magic "GAEAWP2\n" and a
// Hello; the server echoes the magic, then answers HelloAck — or an ID-0
// Resp when it refuses the connection. A Hello whose version is not
// V2Version is dropped unanswered, so peers built against a different
// frame layout fail at the handshake instead of misparsing frames.
//
// Flow control: stream pages are server-push, credited in pages. The
// stream request carries the initial window; each Credit frame grants
// more. The server never has more un-credited pages in flight than the
// window, so a slow consumer cannot be buried and the connection's
// other requests never queue behind a stream burst.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"gaea/internal/object"
	"gaea/internal/sptemp"
)

// V2Magic is the 8-byte preamble a client opens with and the server
// echoes back.
const V2Magic = "GAEAWP2\n"

// V2Version is the frame-layout revision carried in Hello/HelloAck. Both
// ends require an exact match: 3 dropped the request's user and the
// response's cursor slots.
const V2Version = 3

// The v2 frame types.
const (
	F2Hello    byte = 1
	F2HelloAck byte = 2
	F2Req      byte = 3
	F2Resp     byte = 4
	F2Page     byte = 5
	F2Credit   byte = 6
	F2Cancel   byte = 7
)

// Page frame flags.
const (
	// PageEnd marks the final page of a stream; its cursor field is the
	// resume token ("" = exhausted).
	PageEnd byte = 1 << 0
	// PageStats marks a SubscribeStats push: the body after the page
	// header is one JSON-encoded stats delta, and the header's epoch
	// field carries the subscriber's next event sequence (resume point).
	PageStats byte = 1 << 2
)

// OpStreamPush starts a server-push stream (Lease != 0 makes it a
// snapshot stream).
const OpStreamPush Op = 32

// OpSubscribeStats starts a server-push stats subscription: the
// server periodically pushes PageStats pages carrying JSON stats/event
// deltas under the same credit window as OpStreamPush. The request
// reuses Window as the initial credit grant, Page as the push period in
// milliseconds (0 = server default), and Epoch as the last event
// sequence the subscriber has already seen (0 = from the start of the
// ring).
const OpSubscribeStats Op = 33

// RawObject is one object shipped as a GOB3 record — the stored value
// bytes, never decoded on the way, inside the self-describing header the
// object store re-assembles from the class — plus the payloads of any
// image blobs the record references.
type RawObject struct {
	Rec   []byte
	Blobs []object.BlobPayload
}

// Size approximates the raw object's frame footprint for page budgeting.
func (r *RawObject) Size() int {
	n := len(r.Rec) + 16
	for i := range r.Blobs {
		n += len(r.Blobs[i].Data) + 16
	}
	return n
}

// ---------------------------------------------------------------------
// Frame builder (pooled).

// Frame accumulates one outgoing v2 frame. Acquire with AcquireFrame,
// append the body with the typed appenders, hand it to an OutQueue (which
// finishes and releases it) or call Finish + ReleaseFrame yourself.
type Frame struct{ b []byte }

var framePool = sync.Pool{New: func() any { return &Frame{b: make([]byte, 0, 512)} }}

// maxPooledFrame bounds the buffers the pool retains: outsized page
// frames are better left to the GC than parked forever.
const maxPooledFrame = 1 << 20

// AcquireFrame takes a pooled frame and starts it with the given type
// and request ID.
func AcquireFrame(ft byte, id uint64) *Frame {
	f := framePool.Get().(*Frame)
	f.b = append(f.b[:0], 0, 0, 0, 0, ft)
	f.b = binary.AppendUvarint(f.b, id)
	return f
}

// ReleaseFrame returns a frame to the pool.
func ReleaseFrame(f *Frame) {
	if cap(f.b) > maxPooledFrame {
		return
	}
	framePool.Put(f)
}

// Finish patches the length prefix and returns the full frame bytes
// (valid until the frame is released).
func (f *Frame) Finish() ([]byte, error) {
	if int64(len(f.b)-4) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.b)-4)
	}
	binary.BigEndian.PutUint32(f.b[:4], uint32(len(f.b)-4))
	return f.b, nil
}

func (f *Frame) U8(v byte)        { f.b = append(f.b, v) }
func (f *Frame) Uvarint(v uint64) { f.b = binary.AppendUvarint(f.b, v) }
func (f *Frame) Varint(v int64)   { f.b = binary.AppendVarint(f.b, v) }

// F64c appends a float64 as a byte-reversed uvarint: coordinate values
// are overwhelmingly round decimals whose mantissa tail is zero bytes,
// so reversing the bit pattern moves those zeros to the high end and
// the varint collapses them — typically 2-4 bytes instead of 8.
func (f *Frame) F64c(v float64) { f.Uvarint(bits.ReverseBytes64(math.Float64bits(v))) }

func (f *Frame) Bool(v bool) {
	if v {
		f.b = append(f.b, 1)
	} else {
		f.b = append(f.b, 0)
	}
}

// Str appends a uvarint-length-prefixed string.
func (f *Frame) Str(s string) {
	f.b = binary.AppendUvarint(f.b, uint64(len(s)))
	f.b = append(f.b, s...)
}

// Bytes appends a uvarint-length-prefixed byte string.
func (f *Frame) Bytes(p []byte) {
	f.b = binary.AppendUvarint(f.b, uint64(len(p)))
	f.b = append(f.b, p...)
}

func (f *Frame) extent(e *sptemp.Extent) {
	f.Str(string(e.Frame.System))
	f.Str(string(e.Frame.Unit))
	f.F64c(e.Space.MinX)
	f.F64c(e.Space.MinY)
	f.F64c(e.Space.MaxX)
	f.F64c(e.Space.MaxY)
	f.Bool(e.HasTime)
	f.Varint(int64(e.TimeIv.Start))
	f.Varint(int64(e.TimeIv.End))
}

// ---------------------------------------------------------------------
// Decoder cursor.

var errV2Truncated = errors.New("wire: truncated v2 payload")

// Dec is an error-accumulating cursor over a v2 body. Check Err once at
// the end; after the first error every read answers zero values.
type Dec struct {
	b   []byte
	err error
}

// NewDec wraps a body slice.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err reports the first decode error.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail() { d.err = errV2Truncated; d.b = nil }

func (d *Dec) U8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// F64c decodes a byte-reversed-uvarint float64 (see Frame.F64c).
func (d *Dec) F64c() float64 { return math.Float64frombits(bits.ReverseBytes64(d.Uvarint())) }

func (d *Dec) Bool() bool { return d.U8() != 0 }

// Cap clamps a decoded element count to the bytes remaining in the
// body. Every well-formed element costs at least one byte to encode, so
// a count beyond the remainder is corruption or an attack: a 10-byte
// frame must not size a terabyte allocation. Allocations sized by
// decoded counts go through Cap (the wirebounds analyzer enforces it);
// the per-element loops still run to the claimed count and surface
// truncation through Err.
func (d *Dec) Cap(n uint64) int {
	if rem := uint64(len(d.b)); n > rem {
		return int(rem)
	}
	return int(n)
}

// Bytes returns a view into the body (valid only while the body is).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// Str returns a copied string.
func (d *Dec) Str() string { return string(d.Bytes()) }

func (d *Dec) extent(e *sptemp.Extent) {
	e.Frame.System = sptemp.RefSystem(d.Str())
	e.Frame.Unit = sptemp.RefUnit(d.Str())
	e.Space = sptemp.Box{MinX: d.F64c(), MinY: d.F64c(), MaxX: d.F64c(), MaxY: d.F64c()}
	e.HasTime = d.Bool()
	e.TimeIv = sptemp.Interval{Start: sptemp.AbsTime(d.Varint()), End: sptemp.AbsTime(d.Varint())}
}

// ---------------------------------------------------------------------
// Frame reader.

// FrameReader reads v2 frames, reusing one buffer: the returned body is
// valid only until the next call.
type FrameReader struct {
	r   io.Reader
	max int
	hdr [4]byte
	buf []byte
}

// NewFrameReader builds a reader bounded by maxFrame (<= 0 takes
// DefaultMaxFrame).
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{r: r, max: maxFrame}
}

// Next reads one frame and splits it into type, request ID, and body.
func (fr *FrameReader) Next() (ft byte, id uint64, body []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if int64(n) > int64(fr.max) {
		return 0, 0, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, fr.max)
	}
	if n < 2 {
		return 0, 0, nil, fmt.Errorf("wire: short v2 frame (%d bytes)", n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	b := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, b); err != nil {
		return 0, 0, nil, err
	}
	ft = b[0]
	id, vn := binary.Uvarint(b[1:])
	if vn <= 0 {
		return 0, 0, nil, fmt.Errorf("wire: bad v2 frame header")
	}
	return ft, id, b[1+vn:], nil
}

// ---------------------------------------------------------------------
// Hello / HelloAck.

// Hello2 is the v2 handshake payload.
type Hello2 struct {
	Version uint64
	User    string
}

// EncodeHello appends a Hello/HelloAck body.
func EncodeHello(f *Frame, h *Hello2) {
	f.Uvarint(h.Version)
	f.Str(h.User)
}

// DecodeHello parses a Hello/HelloAck body.
func DecodeHello(body []byte) (*Hello2, error) {
	d := NewDec(body)
	h := &Hello2{Version: d.Uvarint(), User: d.Str()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return h, nil
}

// ---------------------------------------------------------------------
// Request encoding.

const (
	reqHasQuery byte = 1 << 0
	reqHasBatch byte = 1 << 1
	reqHasTrace byte = 1 << 2
)

// EncodeRequest appends a Request as a v2 Req body.
func EncodeRequest(f *Frame, req *Request) {
	var mask byte
	if req.Query != nil {
		mask |= reqHasQuery
	}
	if req.Batch != nil {
		mask |= reqHasBatch
	}
	if req.trace != 0 {
		mask |= reqHasTrace
	}
	f.U8(byte(req.Op))
	f.U8(mask)
	f.Uvarint(req.Lease)
	f.Uvarint(req.OID)
	f.Uvarint(req.Epoch)
	f.Uvarint(uint64(req.Window))
	f.Uvarint(uint64(req.Page))
	if req.trace != 0 {
		f.Uvarint(req.trace)
		f.Uvarint(req.parent)
	}
	if req.Query != nil {
		encodeQueryReq(f, req.Query)
	}
	if req.Batch != nil {
		encodeBatchReq(f, req.Batch)
	}
}

// DecodeRequest parses a v2 Req body into req.
func DecodeRequest(body []byte, req *Request) error {
	d := NewDec(body)
	req.Op = Op(d.U8())
	mask := d.U8()
	req.Lease = d.Uvarint()
	req.OID = d.Uvarint()
	req.Epoch = d.Uvarint()
	req.Window = int(d.Uvarint())
	req.Page = int(d.Uvarint())
	if mask&reqHasTrace != 0 {
		req.trace = d.Uvarint()
		req.parent = d.Uvarint()
	}
	if mask&reqHasQuery != 0 {
		req.Query = decodeQueryReq(d)
	}
	if mask&reqHasBatch != 0 {
		req.Batch = decodeBatchReq(d)
	}
	if err := d.Err(); err != nil {
		return err
	}
	return nil
}

func encodeQueryReq(f *Frame, q *QueryReq) {
	f.Str(q.Class)
	f.Str(q.Concept)
	f.extent(&q.Pred)
	f.Uvarint(uint64(len(q.Strategies)))
	for _, s := range q.Strategies {
		f.Str(s)
	}
	f.Uvarint(uint64(q.Limit))
	f.Str(q.Cursor)
	f.Uvarint(uint64(q.Parallelism))
}

func decodeQueryReq(d *Dec) *QueryReq {
	q := &QueryReq{Class: d.Str(), Concept: d.Str()}
	d.extent(&q.Pred)
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		q.Strategies = make([]string, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			q.Strategies = append(q.Strategies, d.Str())
		}
	}
	q.Limit = int(d.Uvarint())
	q.Cursor = d.Str()
	q.Parallelism = int(d.Uvarint())
	return q
}

// encodeObject appends one wire Object: the form a committed batch
// carries (pages ship RawObjects instead).
func encodeObject(f *Frame, o *Object) {
	f.Uvarint(o.OID)
	f.Str(o.Class)
	f.extent(&o.Extent)
	f.Uvarint(uint64(len(o.Attrs)))
	for name, enc := range o.Attrs {
		f.Str(name)
		f.Bytes(enc)
	}
}

// decodeObject parses one wire Object.
func decodeObject(d *Dec) Object {
	var o Object
	o.OID = d.Uvarint()
	o.Class = d.Str()
	d.extent(&o.Extent)
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		o.Attrs = make(map[string][]byte, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			name := d.Str()
			enc := d.Bytes()
			if d.Err() == nil {
				o.Attrs[name] = append([]byte(nil), enc...)
			}
		}
	}
	return o
}

func encodeBatchReq(f *Frame, b *BatchReq) {
	f.Uvarint(b.ReadEpoch)
	f.Uvarint(uint64(len(b.Creates)))
	for i := range b.Creates {
		f.Uvarint(b.Creates[i].Prov)
		f.Str(b.Creates[i].Note)
		encodeObject(f, &b.Creates[i].Obj)
	}
	f.Uvarint(uint64(len(b.Updates)))
	for i := range b.Updates {
		encodeObject(f, &b.Updates[i])
	}
	f.Uvarint(uint64(len(b.Deletes)))
	for _, oid := range b.Deletes {
		f.Uvarint(oid)
	}
}

func decodeBatchReq(d *Dec) *BatchReq {
	b := &BatchReq{ReadEpoch: d.Uvarint()}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		b.Creates = make([]Create, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			c := Create{Prov: d.Uvarint(), Note: d.Str()}
			c.Obj = decodeObject(d)
			b.Creates = append(b.Creates, c)
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		b.Updates = make([]Object, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			b.Updates = append(b.Updates, decodeObject(d))
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		b.Deletes = make([]uint64, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			b.Deletes = append(b.Deletes, d.Uvarint())
		}
	}
	return b
}

// ---------------------------------------------------------------------
// Response encoding.

const (
	respHasResult byte = 1 << 0
	respHasOIDs   byte = 1 << 1
	respHasText   byte = 1 << 2
	respHasStats  byte = 1 << 3
	respHasRaw    byte = 1 << 4
)

// EncodeResponse appends a Response as a v2 Resp body. The layout is
// op-independent (a field mask), so the client needs no request context
// to decode a completion.
func EncodeResponse(f *Frame, r *Response) {
	f.U8(byte(r.Code))
	if r.Code != CodeOK {
		f.Str(r.Err)
		return
	}
	var mask byte
	if r.Result != nil {
		mask |= respHasResult
	}
	if r.OIDs != nil {
		mask |= respHasOIDs
	}
	if r.Text != "" {
		mask |= respHasText
	}
	if r.Stats != nil {
		mask |= respHasStats
	}
	if r.Raw != nil {
		mask |= respHasRaw
	}
	f.U8(mask)
	f.Uvarint(r.Epoch)
	f.Uvarint(r.Lease)
	f.Uvarint(uint64(r.N))
	if r.Result != nil {
		encodeResult(f, r.Result)
	}
	if r.OIDs != nil {
		f.Uvarint(uint64(len(r.OIDs)))
		for _, oid := range r.OIDs {
			f.Uvarint(oid)
		}
	}
	if r.Text != "" {
		f.Str(r.Text)
	}
	if r.Stats != nil {
		encodeStats(f, r.Stats)
	}
	if r.Raw != nil {
		AppendRawObject(f, r.Raw)
	}
}

// DecodeResponse parses a v2 Resp body.
func DecodeResponse(body []byte) (*Response, error) {
	d := NewDec(body)
	r := &Response{Code: Code(d.U8())}
	if r.Code != CodeOK {
		r.Err = d.Str()
		return r, d.Err()
	}
	mask := d.U8()
	r.Epoch = d.Uvarint()
	r.Lease = d.Uvarint()
	r.N = int(d.Uvarint())
	if mask&respHasResult != 0 {
		r.Result = decodeResult(d)
	}
	if mask&respHasOIDs != 0 {
		n := d.Uvarint()
		r.OIDs = make([]uint64, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			r.OIDs = append(r.OIDs, d.Uvarint())
		}
	}
	if mask&respHasText != 0 {
		r.Text = d.Str()
	}
	if mask&respHasStats != 0 {
		r.Stats = decodeStats(d)
	}
	if mask&respHasRaw != 0 {
		raw := DecodeRawObject(d, true)
		r.Raw = &raw
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

func encodeResult(f *Frame, p *ResultPayload) {
	f.Uvarint(uint64(len(p.OIDs)))
	for _, oid := range p.OIDs {
		f.Uvarint(oid)
	}
	f.Uvarint(uint64(len(p.How)))
	for _, h := range p.How {
		f.Str(h)
	}
	f.Uvarint(uint64(len(p.Stale)))
	for _, s := range p.Stale {
		f.Bool(s)
	}
	f.Uvarint(uint64(len(p.TasksRun)))
	for _, t := range p.TasksRun {
		f.Uvarint(t)
	}
	f.Str(p.PlanText)
	f.Uvarint(p.Epoch)
}

func decodeResult(d *Dec) *ResultPayload {
	p := &ResultPayload{}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		p.OIDs = make([]uint64, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			p.OIDs = append(p.OIDs, d.Uvarint())
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		p.How = make([]string, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			p.How = append(p.How, d.Str())
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		p.Stale = make([]bool, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			p.Stale = append(p.Stale, d.Bool())
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		p.TasksRun = make([]uint64, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			p.TasksRun = append(p.TasksRun, d.Uvarint())
		}
	}
	p.PlanText = d.Str()
	p.Epoch = d.Uvarint()
	return p
}

func encodeStats(f *Frame, s *StatsPayload) {
	f.Str(s.Kernel)
	f.Bytes(s.ObsJSON)
}

func decodeStats(d *Dec) *StatsPayload {
	// Copy: Dec hands out sub-slices of a reusable frame buffer.
	return &StatsPayload{Kernel: d.Str(), ObsJSON: append([]byte(nil), d.Bytes()...)}
}

// ---------------------------------------------------------------------
// Page encoding.

// EncodePageHeader starts a Page body: flags, the page's snapshot epoch
// (0 = not resumable, e.g. fallback pages), the END page's cursor, and
// the object count. Append the objects with AppendRawObject.
func EncodePageHeader(f *Frame, flags byte, epoch uint64, cursor string, count int) {
	f.U8(flags)
	f.Uvarint(epoch)
	f.Str(cursor)
	f.Uvarint(uint64(count))
}

// PageHeader is the decoded page prologue.
type PageHeader struct {
	Flags  byte
	Epoch  uint64
	Cursor string
	Count  int
}

// DecodePageHeader parses a Page body prologue, leaving d at the first
// object.
func DecodePageHeader(d *Dec) PageHeader {
	return PageHeader{Flags: d.U8(), Epoch: d.Uvarint(), Cursor: d.Str(), Count: int(d.Uvarint())}
}

// AppendRawObject appends one raw object: its record bytes as they are
// plus its blob payload table.
func AppendRawObject(f *Frame, r *RawObject) {
	f.Bytes(r.Rec)
	f.Uvarint(uint64(len(r.Blobs)))
	for i := range r.Blobs {
		f.Uvarint(r.Blobs[i].ID)
		f.Bytes(r.Blobs[i].Data)
	}
}

// DecodeRawObject parses one raw object. With copy set, the record and
// blob payloads are copied out of the frame buffer (required when they
// outlive the frame read).
func DecodeRawObject(d *Dec, copyOut bool) RawObject {
	var r RawObject
	rec := d.Bytes()
	if copyOut {
		rec = append([]byte(nil), rec...)
	}
	r.Rec = rec
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		r.Blobs = make([]object.BlobPayload, 0, d.Cap(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			id := d.Uvarint()
			data := d.Bytes()
			if copyOut {
				data = append([]byte(nil), data...)
			}
			r.Blobs = append(r.Blobs, object.BlobPayload{ID: id, Data: data})
		}
	}
	return r
}

// EncodeCredit appends a Credit body granting n pages.
func EncodeCredit(f *Frame, n int) { f.Uvarint(uint64(n)) }

// DecodeCredit parses a Credit body.
func DecodeCredit(body []byte) (int, error) {
	d := NewDec(body)
	n := int(d.Uvarint())
	return n, d.Err()
}

// ---------------------------------------------------------------------
// Outbound queue.

// ErrQueueClosed reports a Push after the queue was closed or failed.
var ErrQueueClosed = errors.New("wire: outbound queue closed")

// OutQueue is the single-writer outbound side of a v2 connection: any
// goroutine Pushes finished-to-be frames, one goroutine Runs the write
// loop, which drains the queue in batches and coalesces each batch into
// one socket write — under load, many responses ride one syscall.
// Frames are released back to the pool after writing.
type OutQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       []*Frame
	spare   []*Frame
	wbuf    []byte
	err     error
	closed  bool
	writing bool
}

// NewOutQueue builds an idle queue; start its writer with Run.
func NewOutQueue() *OutQueue {
	o := &OutQueue{}
	o.cond = sync.NewCond(&o.mu)
	return o
}

// Push enqueues a frame (taking ownership). After Close or a write
// failure it releases the frame and reports the terminal error.
func (o *OutQueue) Push(f *Frame) error {
	o.mu.Lock()
	if o.err != nil || o.closed {
		err := o.err
		o.mu.Unlock()
		ReleaseFrame(f)
		if err == nil {
			err = ErrQueueClosed
		}
		return err
	}
	o.q = append(o.q, f)
	o.mu.Unlock()
	o.cond.Broadcast()
	return nil
}

// Run is the writer loop: it returns after Close once the queue is
// drained, or on the first write error.
func (o *OutQueue) Run(w io.Writer) error {
	for {
		o.mu.Lock()
		for len(o.q) == 0 && !o.closed && o.err == nil {
			o.cond.Wait()
		}
		if o.err != nil || (o.closed && len(o.q) == 0) {
			err := o.err
			q := o.q
			o.q = nil
			o.mu.Unlock()
			o.cond.Broadcast()
			for _, f := range q {
				ReleaseFrame(f)
			}
			return err
		}
		batch := o.q
		o.q = o.spare[:0]
		o.writing = true
		o.mu.Unlock()

		o.wbuf = o.wbuf[:0]
		var ferr error
		for _, f := range batch {
			b, err := f.Finish()
			if err != nil {
				ferr = err
				ReleaseFrame(f)
				continue
			}
			o.wbuf = append(o.wbuf, b...)
			ReleaseFrame(f)
		}
		var werr error
		if len(o.wbuf) > 0 {
			_, werr = w.Write(o.wbuf)
		}
		if werr == nil {
			werr = ferr
		}
		if cap(o.wbuf) > maxPooledFrame {
			o.wbuf = nil
		}

		o.mu.Lock()
		o.writing = false
		o.spare = batch[:0]
		if werr != nil && o.err == nil {
			o.err = werr
		}
		done := o.err != nil
		o.mu.Unlock()
		o.cond.Broadcast()
		if done {
			o.mu.Lock()
			q := o.q
			o.q = nil
			err := o.err
			o.mu.Unlock()
			for _, f := range q {
				ReleaseFrame(f)
			}
			return err
		}
	}
}

// Flush blocks until every frame pushed before the call has been written
// (or the queue failed/closed).
func (o *OutQueue) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for (len(o.q) > 0 || o.writing) && o.err == nil && !o.closed {
		o.cond.Wait()
	}
	return o.err
}

// Close stops the queue: Run drains what is queued and returns; later
// Pushes fail.
func (o *OutQueue) Close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.cond.Broadcast()
}

// Fail poisons the queue with err (e.g. the reader noticed the peer is
// gone), waking Run and every Flush.
func (o *OutQueue) Fail(err error) {
	o.mu.Lock()
	if o.err == nil && err != nil {
		o.err = err
	}
	o.mu.Unlock()
	o.cond.Broadcast()
}
