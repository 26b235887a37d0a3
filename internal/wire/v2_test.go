package wire

// Protocol v2 codec tests: every frame body round-trips through the
// hand-rolled binary encoding, special float/time values survive the
// compact extent form, truncated bodies fail cleanly, and the outbound
// queue delivers every frame it accepted. The allocation discipline of
// the hot encode path is pinned by TestV2EncodeAllocs below (skipped
// under the race detector, which instruments allocations).

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"gaea/internal/object"
	"gaea/internal/sptemp"
)

func TestV2HelloRoundTrip(t *testing.T) {
	f := AcquireFrame(F2Hello, 0)
	defer ReleaseFrame(f)
	EncodeHello(f, &Hello2{Version: V2Version, User: "ana"})
	b, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Skip len(4) + type(1) + id uvarint(1).
	h, err := DecodeHello(b[6:])
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != V2Version || h.User != "ana" {
		t.Fatalf("hello round trip: %+v", h)
	}
}

func v2Body(t *testing.T, f *Frame) []byte {
	t.Helper()
	b, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	id, n := uvarintAt(b, 5)
	_ = id
	return b[5+n:]
}

func uvarintAt(b []byte, off int) (uint64, int) {
	var v uint64
	for i := 0; ; i++ {
		c := b[off+i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
}

func TestV2RequestRoundTrip(t *testing.T) {
	in := &Request{
		Op:     OpStreamPush,
		Lease:  9,
		OID:    77,
		Epoch:  12,
		Window: 4,
		Page:   128,
		Query: &QueryReq{
			Class:       "rain",
			Concept:     "rainfall",
			Pred:        sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(-10.5, 0.25, 100, 3e7)),
			Strategies:  []string{"retrieve", "derive"},
			Limit:       7,
			Cursor:      "c2|12|rain|44",
			Parallelism: 2,
		},
		Batch: &BatchReq{
			ReadEpoch: 11,
			Creates: []Create{{
				Prov: 3,
				Note: "seeded",
				Obj: Object{
					OID:    0,
					Class:  "rain",
					Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(1, 2, 3, 4), sptemp.Date(1986, 6, 19)),
					Attrs:  map[string][]byte{"mm": {1, 2, 3}},
				},
			}},
			Updates: []Object{{OID: 5, Class: "rain", Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 1, 1))}},
			Deletes: []uint64{8, 13},
		},
	}
	f := AcquireFrame(F2Req, 42)
	defer ReleaseFrame(f)
	EncodeRequest(f, in)
	var got Request
	if err := DecodeRequest(v2Body(t, f), &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != in.Op || got.Lease != in.Lease ||
		got.OID != in.OID || got.Epoch != in.Epoch || got.Window != in.Window || got.Page != in.Page {
		t.Fatalf("scalar fields mangled: %+v", got)
	}
	q := got.Query
	if q == nil || q.Class != "rain" || q.Concept != "rainfall" || q.Limit != 7 ||
		q.Cursor != "c2|12|rain|44" || q.Parallelism != 2 || len(q.Strategies) != 2 {
		t.Fatalf("query mangled: %+v", q)
	}
	if q.Pred.Space != in.Query.Pred.Space || q.Pred.Frame != in.Query.Pred.Frame {
		t.Fatalf("predicate mangled: %+v", q.Pred)
	}
	b := got.Batch
	if b == nil || b.ReadEpoch != 11 || len(b.Creates) != 1 || len(b.Updates) != 1 || len(b.Deletes) != 2 {
		t.Fatalf("batch mangled: %+v", b)
	}
	c := b.Creates[0]
	if c.Prov != 3 || c.Note != "seeded" || c.Obj.Class != "rain" ||
		c.Obj.Extent != in.Batch.Creates[0].Obj.Extent ||
		!bytes.Equal(c.Obj.Attrs["mm"], []byte{1, 2, 3}) {
		t.Fatalf("create mangled: %+v", c)
	}
	if b.Deletes[0] != 8 || b.Deletes[1] != 13 {
		t.Fatalf("deletes mangled: %v", b.Deletes)
	}
}

func TestV2ResponseRoundTrip(t *testing.T) {
	in := &Response{
		Code:  CodeOK,
		Epoch: 40,
		Lease: 7,
		N:     3,
		Result: &ResultPayload{
			OIDs:     []uint64{1, 2, 3},
			How:      []string{"retrieve"},
			Stale:    []bool{false, true, false},
			TasksRun: []uint64{11},
			PlanText: "plan",
			Epoch:    40,
		},
		OIDs:  []uint64{4, 5},
		Text:  "explain text",
		Stats: &StatsPayload{Kernel: "k", ObsJSON: []byte(`{"stats":{}}`)},
		Raw:   &RawObject{Rec: []byte("REC"), Blobs: []object.BlobPayload{{ID: 3, Data: []byte("IMG")}}},
	}
	f := AcquireFrame(F2Resp, 42)
	defer ReleaseFrame(f)
	EncodeResponse(f, in)
	got, err := DecodeResponse(v2Body(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != CodeOK || got.Epoch != 40 || got.Lease != 7 || got.N != 3 {
		t.Fatalf("scalar fields mangled: %+v", got)
	}
	r := got.Result
	if r == nil || len(r.OIDs) != 3 || r.OIDs[2] != 3 || r.How[0] != "retrieve" ||
		!r.Stale[1] || r.TasksRun[0] != 11 || r.PlanText != "plan" || r.Epoch != 40 {
		t.Fatalf("result mangled: %+v", r)
	}
	if len(got.OIDs) != 2 || got.OIDs[1] != 5 || got.Text != "explain text" {
		t.Fatalf("oids/text mangled: %+v", got)
	}
	s := got.Stats
	if s == nil || s.Kernel != "k" || string(s.ObsJSON) != `{"stats":{}}` {
		t.Fatalf("stats mangled: %+v", s)
	}
	if got.Raw == nil || string(got.Raw.Rec) != "REC" ||
		len(got.Raw.Blobs) != 1 || got.Raw.Blobs[0].ID != 3 || string(got.Raw.Blobs[0].Data) != "IMG" {
		t.Fatalf("raw mangled: %+v", got.Raw)
	}
}

func TestV2ErrorResponseRoundTrip(t *testing.T) {
	f := AcquireFrame(F2Resp, 1)
	defer ReleaseFrame(f)
	EncodeResponse(f, &Response{Code: CodeConflict, Err: "first committer wins"})
	got, err := DecodeResponse(v2Body(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != CodeConflict || got.Err != "first committer wins" {
		t.Fatalf("error response mangled: %+v", got)
	}
}

// TestV2ExtentSpecialValues: the compact extent encoding (byte-reversed
// varint floats, zigzag times) must survive the values gob handled —
// the ±Inf empty box, negative coordinates, NaN, and pre-1970 times.
func TestV2ExtentSpecialValues(t *testing.T) {
	cases := []sptemp.Extent{
		{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()},
		{Frame: sptemp.DefaultFrame, Space: sptemp.NewBox(-1e300, -0.1, 1e-300, math.Pi)},
		sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 1, 1), sptemp.Date(1912, 1, 1)),
	}
	for i, in := range cases {
		f := AcquireFrame(F2Req, 1)
		f.extent(&in)
		var got sptemp.Extent
		d := NewDec(v2Body(t, f))
		d.extent(&got)
		ReleaseFrame(f)
		if err := d.Err(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != in {
			t.Fatalf("case %d: extent mangled: %+v != %+v", i, got, in)
		}
	}
	// NaN compares unequal to itself; check the bit pattern explicitly.
	f := AcquireFrame(F2Req, 1)
	defer ReleaseFrame(f)
	f.F64c(math.NaN())
	d := NewDec(v2Body(t, f))
	if v := d.F64c(); !math.IsNaN(v) || d.Err() != nil {
		t.Fatalf("NaN decoded as %v (err %v)", v, d.Err())
	}
}

func TestV2PageRoundTrip(t *testing.T) {
	f := AcquireFrame(F2Page, 9)
	defer ReleaseFrame(f)
	raws := []RawObject{
		{Rec: []byte("rec-one")},
		{Rec: []byte("rec-two"), Blobs: []object.BlobPayload{{ID: 1, Data: []byte("blob")}}},
	}
	EncodePageHeader(f, PageEnd, 40, "c2|40|rain|2", len(raws))
	for i := range raws {
		AppendRawObject(f, &raws[i])
	}
	d := NewDec(v2Body(t, f))
	h := DecodePageHeader(d)
	if h.Flags != PageEnd || h.Epoch != 40 || h.Cursor != "c2|40|rain|2" || h.Count != 2 {
		t.Fatalf("page header mangled: %+v", h)
	}
	for i := 0; i < h.Count; i++ {
		got := DecodeRawObject(d, false)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		if !bytes.Equal(got.Rec, raws[i].Rec) || len(got.Blobs) != len(raws[i].Blobs) {
			t.Fatalf("raw object %d mangled: %+v", i, got)
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// TestV2DecodeTruncated: every truncation of a valid body must fail
// with an error, never panic or succeed.
func TestV2DecodeTruncated(t *testing.T) {
	f := AcquireFrame(F2Resp, 3)
	defer ReleaseFrame(f)
	EncodeResponse(f, &Response{
		Code:   CodeOK,
		Epoch:  1,
		Result: &ResultPayload{OIDs: []uint64{1, 2}, How: []string{"retrieve"}},
	})
	body := v2Body(t, f)
	for n := 0; n < len(body); n++ {
		if _, err := DecodeResponse(body[:n]); err == nil {
			// A prefix that happens to parse as a complete shorter body
			// is impossible here: the trailing field is a non-empty
			// result payload.
			t.Fatalf("truncation at %d decoded successfully", n)
		}
	}
	var req Request
	if err := DecodeRequest(nil, &req); err == nil {
		t.Fatal("empty request body decoded successfully")
	}
}

// TestV2FrameReader: frames queue behind each other without over-read,
// and an announced length above the bound is refused.
func TestV2FrameReader(t *testing.T) {
	var buf bytes.Buffer
	q := NewOutQueue()
	for i := 1; i <= 3; i++ {
		f := AcquireFrame(F2Resp, uint64(i))
		EncodeResponse(f, &Response{Code: CodeOK, N: i})
		if err := q.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if err := q.Run(&buf); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf, 0)
	for i := 1; i <= 3; i++ {
		ft, id, body, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ft != F2Resp || id != uint64(i) {
			t.Fatalf("frame %d: type %d id %d", i, ft, id)
		}
		resp, err := DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.N != i {
			t.Fatalf("frame %d: N = %d", i, resp.N)
		}
	}

	// Oversized announcement.
	var big bytes.Buffer
	hdr := []byte{0, 16, 0, 0} // 1 MiB against a 1 KiB bound
	big.Write(hdr)
	fr = NewFrameReader(&big, 1<<10)
	if _, _, _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
}

// TestOutQueueFailReleasesPushes: pushes after Fail report the terminal
// error instead of queueing into the void.
func TestOutQueueFail(t *testing.T) {
	q := NewOutQueue()
	boom := errors.New("peer gone")
	q.Fail(boom)
	f := AcquireFrame(F2Resp, 1)
	if err := q.Push(f); !errors.Is(err, boom) {
		t.Fatalf("push after fail: %v, want %v", err, boom)
	}
	if err := q.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush after fail: %v, want %v", err, boom)
	}
}

// ---------------------------------------------------------------------
// Allocation discipline.

// steadyResponse builds the response the server's v2 hot path ships for
// a snapshot point read: a raw object travelling as a record.
func steadyResponse(rec, blob []byte) *Response {
	return &Response{
		Code:  CodeOK,
		Epoch: 40,
		Raw:   &RawObject{Rec: rec, Blobs: []object.BlobPayload{{ID: 1, Data: blob}}},
	}
}

// TestV2EncodeAllocs pins the acceptance bar: encoding one v2 response
// frame on the steady-state path — pooled frame in, finished bytes out
// — allocates at most 2 times per response (it is 0 in practice once
// the pool is warm; the bar leaves headroom for map iteration noise).
func TestV2EncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	rec := bytes.Repeat([]byte{0xAB}, 256)
	blob := bytes.Repeat([]byte{0xCD}, 1024)
	resp := steadyResponse(rec, blob)
	// Warm the pool and the frame capacity.
	for i := 0; i < 8; i++ {
		f := AcquireFrame(F2Resp, 7)
		EncodeResponse(f, resp)
		if _, err := f.Finish(); err != nil {
			t.Fatal(err)
		}
		ReleaseFrame(f)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		f := AcquireFrame(F2Resp, 7)
		EncodeResponse(f, resp)
		if _, err := f.Finish(); err != nil {
			panic(err)
		}
		ReleaseFrame(f)
	})
	if allocs > 2 {
		t.Fatalf("v2 response encode allocates %.1f/op, want <= 2", allocs)
	}
}

// BenchmarkV2ResponseEncode measures the server-side hot path: one raw
// snapshot read shipped as a v2 frame.
func BenchmarkV2ResponseEncode(b *testing.B) {
	rec := bytes.Repeat([]byte{0xAB}, 256)
	blob := bytes.Repeat([]byte{0xCD}, 1024)
	resp := steadyResponse(rec, blob)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := AcquireFrame(F2Resp, 7)
		EncodeResponse(f, resp)
		if _, err := f.Finish(); err != nil {
			b.Fatal(err)
		}
		ReleaseFrame(f)
	}
}

// BenchmarkV2PageEncode: one 32-object raw push page, the bulk-stream
// hot path.
func BenchmarkV2PageEncode(b *testing.B) {
	rec := bytes.Repeat([]byte{0xAB}, 256)
	raws := make([]RawObject, 32)
	for i := range raws {
		raws[i] = RawObject{Rec: rec}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := AcquireFrame(F2Page, 9)
		EncodePageHeader(f, 0, 40, "", len(raws))
		for j := range raws {
			AppendRawObject(f, &raws[j])
		}
		if _, err := f.Finish(); err != nil {
			b.Fatal(err)
		}
		ReleaseFrame(f)
	}
}
