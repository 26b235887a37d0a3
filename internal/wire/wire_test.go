package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gaea/internal/object"
	"gaea/internal/query"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
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

// TestErrorTaxonomyRoundTrip pins the wire half of the error contract:
// every code's number, and for each sentinel — bare and wrapped once
// more — the code CodeOf gives it and the error ErrorOf gives back,
// which must errors.Is the sentinel and keep the server's text. The
// expected codes are written out here, not read from the table.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	numbers := []struct {
		code Code
		n    uint8
		name string
	}{
		{CodeOK, 0, "ok"}, {CodeNotFound, 1, "not-found"}, {CodeClassUnknown, 2, "class-unknown"},
		{CodeNoPlan, 3, "no-plan"}, {CodeStale, 4, "stale"}, {CodeConflict, 5, "conflict"},
		{CodeSnapshotGone, 6, "snapshot-gone"}, {CodeClosed, 7, "closed"}, {CodeBadRequest, 8, "bad-request"},
		{CodeCanceled, 9, "canceled"}, {CodeUnavailable, 10, "unavailable"}, {CodeInternal, 11, "internal"},
	}
	for _, c := range numbers {
		if uint8(c.code) != c.n || c.code.String() != c.name {
			t.Errorf("code %s = %d, want %s = %d", c.code, uint8(c.code), c.name, c.n)
		}
	}
	if got := Code(200).String(); got != "code(200)" {
		t.Errorf("unknown code named %q", got)
	}
	if got := CodeOf(nil); got != CodeOK {
		t.Errorf("CodeOf(nil) = %v", got)
	}

	sentinels := []error{ErrNotFound, ErrClassUnknown, ErrNoPlan, ErrStale, ErrConflict,
		ErrSnapshotGone, ErrClosed, context.Canceled, ErrUnavailable}
	typed := []struct {
		err  error
		want Code
		back error // the sentinel the client's error matches
	}{
		{ErrNotFound, CodeNotFound, ErrNotFound},
		{ErrClassUnknown, CodeClassUnknown, ErrClassUnknown},
		{ErrNoPlan, CodeNoPlan, ErrNoPlan},
		{ErrStale, CodeStale, ErrStale},
		{ErrConflict, CodeConflict, ErrConflict},
		{ErrSnapshotGone, CodeSnapshotGone, ErrSnapshotGone},
		{ErrClosed, CodeClosed, ErrClosed},
		{context.Canceled, CodeCanceled, context.Canceled},
		{context.DeadlineExceeded, CodeCanceled, context.Canceled},
		{ErrUnavailable, CodeUnavailable, ErrUnavailable},
		// Precedence: the more specific sentinel wins.
		{fmt.Errorf("%w: %w", ErrConflict, ErrNotFound), CodeConflict, ErrConflict},
		{fmt.Errorf("%w: %w", ErrClosed, context.Canceled), CodeClosed, ErrClosed},
	}
	for _, c := range typed {
		for _, err := range []error{c.err, fmt.Errorf("outer: %w", c.err)} {
			code := CodeOf(err)
			if code != c.want {
				t.Errorf("CodeOf(%v) = %v, want %v", err, code, c.want)
			}
			back := ErrorOf(code, "server text")
			if !errors.Is(back, c.back) || !strings.Contains(back.Error(), "server text") {
				t.Errorf("ErrorOf(%v) = %v, want errors.Is %v with the server text", code, back, c.back)
			}
		}
	}

	// Bad-request and internal come back untyped, with the text.
	untyped := []struct {
		err  error
		want Code
	}{
		{query.ErrBadRequest, CodeBadRequest},
		{object.ErrBadAttr, CodeBadRequest},
		{errors.New("disk on fire"), CodeInternal},
	}
	for _, c := range untyped {
		for _, err := range []error{c.err, fmt.Errorf("outer: %w", c.err)} {
			code := CodeOf(err)
			if code != c.want {
				t.Errorf("CodeOf(%v) = %v, want %v", err, code, c.want)
			}
			back := ErrorOf(code, "server text")
			for _, s := range sentinels {
				if errors.Is(back, s) {
					t.Errorf("ErrorOf(%v) = %v, typed as %v", code, back, s)
				}
			}
			if !strings.Contains(back.Error(), "server text") {
				t.Errorf("ErrorOf(%v) lost the server text: %v", code, back)
			}
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
