package server

// Unit tests against a fake Backend, speaking raw frames: per-request
// cancellation when the client disconnects (or sends a frame type the
// protocol does not have) mid-request, and the explicit connection-level
// error response for over-limit request frames. The full-stack
// behaviour is covered by gaea/client's integration tests; these pin the
// server mechanics in isolation.

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/query"
	"gaea/internal/wire"
)

// fakeBackend blocks Query until its context is cancelled and records
// the outcome.
type fakeBackend struct {
	queryStarted  chan struct{}
	queryReturned chan error
	reg           *obs.Registry
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		queryStarted:  make(chan struct{}, 8),
		queryReturned: make(chan error, 8),
		reg:           obs.NewRegistry(),
	}
}

func (f *fakeBackend) Query(ctx context.Context, req query.Request) (*query.Result, error) {
	f.queryStarted <- struct{}{}
	<-ctx.Done()
	f.queryReturned <- ctx.Err()
	return nil, ctx.Err()
}

func (f *fakeBackend) Begin(ctx context.Context, readEpoch uint64, user string) Session { return nil }
func (f *fakeBackend) Epoch() uint64                                                    { return 1 }
func (f *fakeBackend) QueryAt(ctx context.Context, req query.Request, epoch uint64) (*query.Result, error) {
	return &query.Result{}, nil
}
func (f *fakeBackend) StreamPage(ctx context.Context, req query.Request, epoch uint64, retrieveOnly bool, maxBytes int) ([]wire.RawObject, string, bool, error) {
	return nil, "", false, nil
}
func (f *fakeBackend) GetRawAt(oid object.OID, epoch uint64) (wire.RawObject, error) {
	return wire.RawObject{}, nil
}
func (f *fakeBackend) Pin() uint64                 { return 1 }
func (f *fakeBackend) PinEpoch(epoch uint64) error { return nil }
func (f *fakeBackend) Unpin(epoch uint64)          {}
func (f *fakeBackend) CursorEpoch(c string) (uint64, error) {
	return query.CursorEpoch(c)
}
func (f *fakeBackend) Stale() []object.OID                           { return nil }
func (f *fakeBackend) RefreshStale(ctx context.Context) (int, error) { return 0, nil }
func (f *fakeBackend) Explain(oid object.OID) string                 { return "" }
func (f *fakeBackend) ExplainQuery(ctx context.Context, req query.Request) (string, error) {
	return "", nil
}
func (f *fakeBackend) Stats() string            { return "fake" }
func (f *fakeBackend) Code(err error) wire.Code { return wire.CodeFor(err) }
func (f *fakeBackend) Metrics() *obs.Registry   { return f.reg }
func (f *fakeBackend) Tracer() *obs.Tracer      { return nil }
func (f *fakeBackend) Events() *obs.EventLog    { return nil }
func (f *fakeBackend) ObsJSON() []byte          { return nil }

// startFake serves a fake backend on a unix socket.
func startFake(t *testing.T, b Backend, opts Options) (string, *Server) {
	t.Helper()
	dir, err := os.MkdirTemp("", "gaea-srv-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "s")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(b, opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return path, srv
}

// rawDial connects and completes the handshake: magic and Hello out,
// the magic echo and HelloAck back.
func rawDial(t *testing.T, path string) (net.Conn, *wire.FrameReader) {
	t.Helper()
	conn, err := net.DialTimeout("unix", path, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	writeFrame(t, conn, wire.V2Magic, wire.F2Hello, 0, func(f *wire.Frame) {
		wire.EncodeHello(f, &wire.Hello2{Version: wire.V2Version, User: "raw"})
	})
	var magic [len(wire.V2Magic)]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil || string(magic[:]) != wire.V2Magic {
		t.Fatalf("magic echo %q, %v", magic, err)
	}
	fr := wire.NewFrameReader(conn, 0)
	if ft, _, _, err := fr.Next(); err != nil || ft != wire.F2HelloAck {
		t.Fatalf("handshake answered frame %d, %v; want HelloAck", ft, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn, fr
}

// writeFrame writes prefix followed by one finished frame.
func writeFrame(t *testing.T, conn net.Conn, prefix string, ft byte, id uint64, enc func(*wire.Frame)) {
	t.Helper()
	f := wire.AcquireFrame(ft, id)
	defer wire.ReleaseFrame(f)
	enc(f)
	b, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append([]byte(prefix), b...)); err != nil {
		t.Fatal(err)
	}
}

func sendQuery(t *testing.T, conn net.Conn) {
	t.Helper()
	writeFrame(t, conn, "", wire.F2Req, 1, func(f *wire.Frame) {
		wire.EncodeRequest(f, &wire.Request{Op: wire.OpQuery, Query: &wire.QueryReq{Class: "x"}})
	})
}

// readResp reads the next frame, which must be a Resp, and decodes it.
func readResp(t *testing.T, conn net.Conn, fr *wire.FrameReader) (uint64, *wire.Response) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, id, body, err := fr.Next()
	if err != nil {
		t.Fatalf("no response: %v", err)
	}
	if ft != wire.F2Resp {
		t.Fatalf("frame type %d, want Resp", ft)
	}
	resp, err := wire.DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return id, resp
}

// TestRequestCancelledOnDisconnect: a client that goes away mid-request
// cancels the kernel work instead of occupying the connection slot
// until the work completes on its own.
func TestRequestCancelledOnDisconnect(t *testing.T) {
	b := newFakeBackend()
	path, _ := startFake(t, b, Options{})
	conn, _ := rawDial(t, path)
	sendQuery(t, conn)
	select {
	case <-b.queryStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the backend")
	}
	conn.Close() // the client vanishes mid-request
	select {
	case err := <-b.queryReturned:
		if err == nil {
			t.Fatal("backend context was not cancelled")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backend kept running after the client disconnected")
	}
}

// TestRequestCancelledOnProtocolViolation: a frame type the protocol
// does not have, arriving while a request is in flight, means the
// framing can no longer be trusted — the request is cancelled and the
// connection dropped.
func TestRequestCancelledOnProtocolViolation(t *testing.T) {
	b := newFakeBackend()
	path, _ := startFake(t, b, Options{})
	conn, _ := rawDial(t, path)
	sendQuery(t, conn)
	select {
	case <-b.queryStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the backend")
	}
	writeFrame(t, conn, "", 0xFF, 1, func(*wire.Frame) {})
	select {
	case err := <-b.queryReturned:
		if err == nil {
			t.Fatal("backend context was not cancelled")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backend kept running after the protocol violation")
	}
	// The connection must be closed, not answered.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // closed, as required
		}
	}
}

// TestOversizedRequestFrameAnswered: a request frame above MaxFrame is
// refused with an explicit connection-level (request ID 0)
// CodeBadRequest response (only the header was consumed, so the stream
// is still writable) before the drop.
func TestOversizedRequestFrameAnswered(t *testing.T) {
	b := newFakeBackend()
	path, _ := startFake(t, b, Options{MaxFrame: 1 << 10})
	conn, fr := rawDial(t, path)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<20) // announce 1 MiB against a 1 KiB limit
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	id, resp := readResp(t, conn, fr)
	if id != 0 || resp.Code != wire.CodeBadRequest || !strings.Contains(resp.Err, "exceeds maximum size") {
		t.Fatalf("response id %d %+v, want a connection-level bad-request naming the frame limit", id, resp)
	}
}
