package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/petri"
	"gaea/internal/query"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/task"
	"gaea/internal/value"
)

// writeFrames pushes one finished frame per encoder through an OutQueue
// into a buffer, the way a connection's writer does.
func writeFrames(t *testing.T, ft byte, encs ...func(*Frame)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	q := NewOutQueue()
	for i, enc := range encs {
		f := AcquireFrame(ft, uint64(i+1))
		enc(f)
		if err := q.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if err := q.Run(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// readRequest reads the next frame and decodes it as a request.
func readRequest(t *testing.T, fr *FrameReader) *Request {
	t.Helper()
	ft, _, body, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ft != F2Req {
		t.Fatalf("frame type %d, want Req", ft)
	}
	var req Request
	if err := DecodeRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	return &req
}

func TestFrameRoundTrip(t *testing.T) {
	req := &Request{
		Op: OpStreamPush,
		Query: &QueryReq{
			Class:      "rain",
			Pred:       sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 100, 100)),
			Strategies: []string{"retrieve"},
			Limit:      7,
			Cursor:     "c2|12|rain|44",
		},
	}
	// A second frame behind the first: framing must not over-read.
	buf := writeFrames(t, F2Req,
		func(f *Frame) { EncodeRequest(f, req) },
		func(f *Frame) { EncodeRequest(f, &Request{Op: OpStats}) })
	fr := NewFrameReader(buf, 0)
	got := readRequest(t, fr)
	if got.Op != OpStreamPush || got.Query == nil || got.Query.Class != "rain" ||
		got.Query.Limit != 7 || got.Query.Cursor != "c2|12|rain|44" {
		t.Fatalf("bad round trip: %+v", got)
	}
	if got.Query.Pred.Space != sptemp.NewBox(0, 0, 100, 100) {
		t.Fatalf("bad predicate: %+v", got.Query.Pred)
	}
	if second := readRequest(t, fr); second.Op != OpStats {
		t.Fatalf("second frame op = %v", second.Op)
	}
}

// An empty-box predicate carries ±Inf coordinates; the codec must not
// mangle them (encoding/json would).
func TestFrameEmptyBoxPredicate(t *testing.T) {
	req := &Request{Op: OpQuery, Query: &QueryReq{
		Class: "rain",
		Pred:  sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()},
	}}
	got := readRequest(t, NewFrameReader(writeFrames(t, F2Req, func(f *Frame) { EncodeRequest(f, req) }), 0))
	if !got.Query.Pred.Space.IsEmpty() {
		t.Fatalf("empty box decoded non-empty: %+v", got.Query.Pred.Space)
	}
}

func TestFrameTooLarge(t *testing.T) {
	big := &Response{Code: CodeInternal, Err: string(make([]byte, 4096))}
	buf := writeFrames(t, F2Resp, func(f *Frame) { EncodeResponse(f, big) })
	if _, _, _, err := NewFrameReader(buf, 128).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestObjectRoundTrip ships an object with scalar, box, and image
// attributes through the wire form of a committed batch and back.
func TestObjectRoundTrip(t *testing.T) {
	img := raster.MustNew(4, 4, raster.PixFloat8)
	for i := 0; i < 4; i++ {
		if err := img.Set(i, i, float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	in := &object.Object{
		OID:   42,
		Class: "landsat_tm",
		Attrs: map[string]value.Value{
			"band":  value.String_("red"),
			"gain":  value.Float(2.25),
			"rows":  value.Int(4),
			"valid": value.Bool(true),
			"area":  value.Box(sptemp.NewBox(1, 2, 3, 4)),
			"data":  value.Image{Img: img},
		},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 120, 120), sptemp.Date(1986, 6, 19)),
	}
	w, err := FromObject(in)
	if err != nil {
		t.Fatal(err)
	}
	// Through the framing too, like a real commit.
	req := &Request{Op: OpCommit, Batch: &BatchReq{Updates: []Object{w}}}
	got := readRequest(t, NewFrameReader(writeFrames(t, F2Req, func(f *Frame) { EncodeRequest(f, req) }), 0))
	out, err := got.Batch.Updates[0].ToObject()
	if err != nil {
		t.Fatal(err)
	}
	if out.OID != in.OID || out.Class != in.Class || out.Extent != in.Extent {
		t.Fatalf("identity fields mangled: %+v", out)
	}
	if got := out.Attrs["band"].(value.String_); got != "red" {
		t.Fatalf("band = %q", got)
	}
	if got := out.Attrs["gain"].(value.Float); got != 2.25 {
		t.Fatalf("gain = %v", got)
	}
	gotImg := out.Attrs["data"].(value.Image).Img
	px, err := gotImg.At(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gotImg.Rows() != 4 || gotImg.Cols() != 4 || px != 3.0 {
		t.Fatalf("image mangled: %dx%d at(2,2)=%v", gotImg.Rows(), gotImg.Cols(), px)
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := &query.Result{
		OIDs:     []object.OID{3, 5},
		How:      []query.Strategy{query.Retrieve, query.Derive},
		Stale:    []bool{false, true},
		TasksRun: []task.ID{7},
		PlanText: "plan",
		Epoch:    9,
	}
	out := FromResult(res).ToResult()
	if fmt.Sprint(out) != fmt.Sprint(res) {
		t.Fatalf("round trip mangled result:\n in: %+v\nout: %+v", res, out)
	}
}

// TestCodeForTaxonomy pins the server-side half of the error contract:
// every internal sentinel the public taxonomy classifies must map to
// its wire code (the client-side half lives in the client package).
func TestCodeForTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{object.ErrSnapshotGone, CodeSnapshotGone},
		{object.ErrConflict, CodeConflict},
		{task.ErrStaleInput, CodeStale},
		{catalog.ErrClassNotFound, CodeClassUnknown},
		{petri.ErrNoPlan, CodeNoPlan},
		{query.ErrUnsatisfied, CodeNoPlan},
		{object.ErrNotFound, CodeNotFound},
		{task.ErrTaskNotFound, CodeNotFound},
		{storage.ErrNotFound, CodeNotFound},
		{query.ErrBadRequest, CodeBadRequest},
		{object.ErrBadAttr, CodeBadRequest},
		{context.Canceled, CodeCanceled},
		{context.DeadlineExceeded, CodeCanceled},
		{errors.New("anything else"), CodeInternal},
		{nil, CodeOK},
	}
	for _, c := range cases {
		// Both bare and wrapped, as the kernel's classify layer wraps.
		if got := CodeFor(c.err); got != c.want {
			t.Errorf("CodeFor(%v) = %v, want %v", c.err, got, c.want)
		}
		if c.err == nil {
			continue
		}
		wrapped := fmt.Errorf("outer: %w", c.err)
		if got := CodeFor(wrapped); got != c.want {
			t.Errorf("CodeFor(wrapped %v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestProvisionalBit(t *testing.T) {
	if IsProvisional(object.OID(17)) {
		t.Fatal("real OID read as provisional")
	}
	if !IsProvisional(object.OID(ProvisionalBit | 17)) {
		t.Fatal("provisional OID not detected")
	}
}
