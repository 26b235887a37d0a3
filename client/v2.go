package client

// The transport: request-ID multiplexing over one connection. A writer
// goroutine drains an outbound queue (coalescing whatever is ready into
// single socket writes); a reader goroutine demultiplexes completions
// and server-push stream pages by request ID.
// Consequences visible through the Kernel surface:
//
//   - Concurrent calls share the connection instead of serialising on
//     it: a slow query and a fast one interleave freely.
//   - Deadlines are per REQUEST. A context that expires — or the 30s
//     default bound on context-free calls — abandons that one request
//     (deregistered locally, cancelled server-side) without poisoning
//     the connection, because responses are matched by ID, not order.
//   - Streams are server-push: one request, then pages arrive ahead of
//     the consumer under a credit window, with no per-page round trip.

import (
	"context"
	"fmt"
	"io"
	"iter"
	"net"
	"sync"
	"time"

	"gaea"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/query"
	"gaea/internal/wire"
)

// transport multiplexes requests over one connection.
type transport struct {
	opts Options
	nc   net.Conn
	out  *wire.OutQueue

	mu      sync.Mutex
	err     error // terminal: set once, everything after fails with it
	nextID  uint64
	calls   map[uint64]chan *wire.Response
	streams map[uint64]*v2pull
}

// newTransport performs the handshake (bounded by dialTimeout) and starts
// the reader and writer goroutines.
func newTransport(nc net.Conn, opts Options) (*transport, error) {
	_ = nc.SetDeadline(time.Now().Add(dialTimeout))
	hello := wire.AcquireFrame(wire.F2Hello, 0)
	wire.EncodeHello(hello, &wire.Hello2{Version: wire.V2Version, User: opts.User})
	hb, err := hello.Finish()
	if err != nil {
		wire.ReleaseFrame(hello)
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	buf := make([]byte, 0, len(wire.V2Magic)+len(hb))
	buf = append(buf, wire.V2Magic...)
	buf = append(buf, hb...)
	_, werr := nc.Write(buf)
	wire.ReleaseFrame(hello)
	// A server refusing the connection writes its refusal and closes
	// without reading the Hello, so the write can fail while the reason
	// waits to be read: report the write error only if no reply follows.
	var pre [len(wire.V2Magic)]byte
	if _, err := io.ReadFull(nc, pre[:]); err != nil {
		if werr != nil {
			err = werr
		}
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	if string(pre[:]) != wire.V2Magic {
		return nil, fmt.Errorf("%w: not a Gaea server", ErrUnavailable)
	}
	fr := wire.NewFrameReader(nc, opts.MaxFrame)
	ft, id, body, err := fr.Next()
	if err != nil {
		return nil, fmt.Errorf("%w: handshake: %v", ErrUnavailable, err)
	}
	if ft == wire.F2Resp && id == 0 {
		// The server refuses the connection (connection limit, shutdown)
		// and says why.
		resp, err := wire.DecodeResponse(body)
		if err != nil {
			return nil, fmt.Errorf("%w: bad refusal: %v", ErrUnavailable, err)
		}
		return nil, wire.ErrorOf(resp.Code, resp.Err)
	}
	if werr != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, werr)
	}
	if ft != wire.F2HelloAck {
		return nil, fmt.Errorf("%w: bad handshake", ErrUnavailable)
	}
	ack, err := wire.DecodeHello(body)
	if err != nil {
		return nil, fmt.Errorf("%w: bad handshake: %v", ErrUnavailable, err)
	}
	if ack.Version != wire.V2Version {
		return nil, fmt.Errorf("%w: server speaks protocol revision %d, want %d", ErrUnavailable, ack.Version, wire.V2Version)
	}
	_ = nc.SetDeadline(time.Time{})
	t := &transport{
		opts:    opts,
		nc:      nc,
		out:     wire.NewOutQueue(),
		calls:   make(map[uint64]chan *wire.Response),
		streams: make(map[uint64]*v2pull),
	}
	go func() { _ = t.out.Run(nc) }() // exits when the queue fails or closes
	go t.readLoop(fr)
	return t, nil
}

// readLoop demultiplexes incoming frames until the connection dies.
func (t *transport) readLoop(fr *wire.FrameReader) {
	for {
		ft, id, body, err := fr.Next()
		if err != nil {
			t.fail(fmt.Errorf("%w: %v", ErrUnavailable, err))
			return
		}
		switch ft {
		case wire.F2Resp:
			resp, derr := wire.DecodeResponse(body)
			if derr != nil {
				t.fail(fmt.Errorf("%w: %v", ErrUnavailable, derr))
				return
			}
			if id == 0 {
				// Connection-level refusal: the server is turning the whole
				// connection away.
				t.fail(wire.ErrorOf(resp.Code, resp.Err))
				return
			}
			t.mu.Lock()
			if ch, ok := t.calls[id]; ok {
				delete(t.calls, id)
				t.mu.Unlock()
				ch <- resp
				continue
			}
			st := t.streams[id]
			if st != nil {
				delete(t.streams, id)
			}
			t.mu.Unlock()
			if st != nil {
				// A completion on a stream ID is its error end.
				st.deliver(&v2page{err: streamRespErr(resp)})
			}
			// Unknown ID: a response for an abandoned request — drop it.
		case wire.F2Page:
			t.mu.Lock()
			st := t.streams[id]
			t.mu.Unlock()
			if st == nil {
				continue // late page for a cancelled stream: expected noise
			}
			pg := decodePage(body)
			if pg.end {
				t.mu.Lock()
				delete(t.streams, id)
				t.mu.Unlock()
			}
			st.deliver(pg)
		default:
			t.fail(fmt.Errorf("%w: unexpected frame type %d", ErrUnavailable, ft))
			return
		}
	}
}

// fail poisons the transport: every registered call and stream is
// terminated with err, the socket closes, and later calls fail fast.
func (t *transport) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	err = t.err
	calls := t.calls
	streams := t.streams
	t.calls = make(map[uint64]chan *wire.Response)
	t.streams = make(map[uint64]*v2pull)
	t.mu.Unlock()
	t.out.Fail(err)
	_ = t.nc.Close()
	for _, ch := range calls {
		ch <- nil // terminal: the waiter reads t.err
	}
	for _, st := range streams {
		st.deliver(&v2page{err: err})
	}
}

// close fails in-flight calls with ErrClosed and closes the socket.
func (t *transport) close() error {
	t.fail(fmt.Errorf("%w: connection closed", gaea.ErrClosed))
	return nil
}

// roundTrip sends one request and waits for its completion. An expired
// context or timeout abandons only THIS request — the connection keeps
// serving everything else.
func (t *transport) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	if t.err != nil {
		err := t.err
		t.mu.Unlock()
		return nil, err
	}
	t.nextID++
	id := t.nextID
	ch := make(chan *wire.Response, 1)
	t.calls[id] = ch
	t.mu.Unlock()

	f := wire.AcquireFrame(wire.F2Req, id)
	wire.EncodeRequest(f, req)
	if err := t.out.Push(f); err != nil {
		t.mu.Lock()
		delete(t.calls, id)
		terr := t.err
		t.mu.Unlock()
		if terr == nil {
			terr = fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
		return nil, terr
	}

	var done <-chan struct{}
	var timeout <-chan time.Time
	if ctx != nil {
		done = ctx.Done()
	} else {
		// No context: bound the wait so a hung server cannot wedge the
		// caller — per request, not per connection.
		timer := time.NewTimer(defaultRequestTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case resp := <-ch:
		if resp == nil {
			t.mu.Lock()
			err := t.err
			t.mu.Unlock()
			return nil, err
		}
		if resp.Code != wire.CodeOK {
			return nil, wire.ErrorOf(resp.Code, resp.Err)
		}
		return resp, nil
	case <-done:
		t.abandon(id)
		return nil, ctx.Err()
	case <-timeout:
		t.abandon(id)
		return nil, fmt.Errorf("%w: request timed out after %v", ErrUnavailable, defaultRequestTimeout)
	}
}

// abandon gives up on one request without poisoning the connection: the
// call is deregistered (a late completion is dropped on the floor) and
// the server is told to cancel the work.
func (t *transport) abandon(id uint64) {
	t.mu.Lock()
	delete(t.calls, id)
	t.mu.Unlock()
	f := wire.AcquireFrame(wire.F2Cancel, id)
	_ = t.out.Push(f)
}

// startStream registers a push stream and sends its request.
func (t *transport) startStream(req *wire.Request, window int) (*v2pull, error) {
	t.mu.Lock()
	if t.err != nil {
		err := t.err
		t.mu.Unlock()
		return nil, err
	}
	t.nextID++
	id := t.nextID
	p := &v2pull{id: id, pages: make(chan *v2page, window+2)}
	t.streams[id] = p
	t.mu.Unlock()
	f := wire.AcquireFrame(wire.F2Req, id)
	wire.EncodeRequest(f, req)
	if err := t.out.Push(f); err != nil {
		t.mu.Lock()
		delete(t.streams, id)
		terr := t.err
		t.mu.Unlock()
		if terr == nil {
			terr = fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
		return nil, terr
	}
	return p, nil
}

// credit grants the server n more pages on a stream.
func (t *transport) credit(id uint64, n int) {
	f := wire.AcquireFrame(wire.F2Credit, id)
	wire.EncodeCredit(f, n)
	_ = t.out.Push(f)
}

// cancelStream deregisters a stream and tells the server to abort it
// (the server hands the stream's pin to a cursor lease).
func (t *transport) cancelStream(id uint64) {
	t.mu.Lock()
	delete(t.streams, id)
	t.mu.Unlock()
	f := wire.AcquireFrame(wire.F2Cancel, id)
	_ = t.out.Push(f)
}

// streamRespErr turns a stream's completion response into its error.
func streamRespErr(resp *wire.Response) error {
	if resp.Code != wire.CodeOK {
		return wire.ErrorOf(resp.Code, resp.Err)
	}
	return fmt.Errorf("client: malformed stream completion")
}

// v2pull is the reader-side buffer of one push stream. Capacity covers
// the credit window plus the terminal page, so the reader goroutine
// never blocks on a stream consumer.
type v2pull struct {
	id    uint64
	pages chan *v2page
}

func (p *v2pull) deliver(pg *v2page) {
	select {
	case p.pages <- pg:
	default:
		// The server overran its credit window; drop the stream rather
		// than stall the connection's reader.
		select {
		case p.pages <- &v2page{err: fmt.Errorf("%w: server overran the stream window", ErrUnavailable)}:
		default:
		}
	}
}

// v2page is one decoded push page (or a terminal error). Stats pages
// (SubscribeStats) carry their JSON delta in stats instead of objects;
// their epoch field is the subscription's next event sequence.
type v2page struct {
	epoch  uint64
	cursor string
	end    bool
	objs   []*object.Object
	stats  []byte
	err    error
}

// decodePage decodes a Page body. Everything is copied out of the frame
// buffer by decoding, so the page is safe to hand across goroutines.
func decodePage(body []byte) *v2page {
	d := wire.NewDec(body)
	hdr := wire.DecodePageHeader(d)
	pg := &v2page{epoch: hdr.Epoch, cursor: hdr.Cursor, end: hdr.Flags&wire.PageEnd != 0}
	if hdr.Flags&wire.PageStats != 0 {
		// The JSON body outlives the frame buffer: copy it out.
		pg.stats = append([]byte(nil), d.Bytes()...)
		if err := d.Err(); err != nil {
			pg.err = fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
		return pg
	}
	for i := 0; i < hdr.Count && d.Err() == nil; i++ {
		ro := wire.DecodeRawObject(d, false)
		if d.Err() != nil {
			break
		}
		o, err := object.DecodeWire(ro.Rec, ro.Blobs)
		if err != nil {
			pg.err = err
			return pg
		}
		pg.objs = append(pg.objs, o)
	}
	if err := d.Err(); err != nil {
		pg.err = fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return pg
}

// pushStream is the client side of a server-push stream. It mirrors the
// embedded Stream contract: single use, Cursor() reports where iteration
// stopped (synthesised mid-page when the consumer breaks), empty cursor
// = exhausted. The server request is sent lazily at the first pull.
type pushStream struct {
	c     *Conn
	ctx   context.Context
	req   gaea.Request
	lease uint64 // snapshot streams ride their lease's pin

	mu       sync.Mutex
	cursor   string
	consumed bool
}

func (s *pushStream) claim() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.consumed {
		return false
	}
	s.consumed = true
	return true
}

func (s *pushStream) setCursor(c string) {
	s.mu.Lock()
	s.cursor = c
	s.mu.Unlock()
}

// Cursor reports the resume token; pass it as Request.Cursor on any
// backend (embedded or remote, same or new connection) to continue at
// the same snapshot.
func (s *pushStream) Cursor() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// All returns the push-paged sequence.
func (s *pushStream) All() iter.Seq2[*object.Object, error] {
	return func(yield func(*object.Object, error) bool) {
		if !s.claim() {
			yield(nil, fmt.Errorf("%w: stream already consumed", query.ErrBadRequest))
			return
		}
		if err := s.ctx.Err(); err != nil {
			yield(nil, err)
			return
		}
		_, sp := obs.Start(s.c.traced(s.ctx), "client/query_stream")
		defer sp.End()
		sp.Annotate("class", s.req.Class)
		window := s.c.opts.StreamWindow
		if window <= 0 {
			window = defaultStreamWindow
		}
		page := s.c.opts.PageSize
		if page <= 0 {
			page = 256
		}
		q := wire.FromQuery(s.req)
		q.Cursor = s.req.Cursor
		sreq := &wire.Request{
			Op: wire.OpStreamPush, Query: &q, Lease: s.lease,
			Window: window, Page: page,
		}
		sreq.SetTrace(sp.TraceID())
		sreq.SetParentSpan(sp.SpanID())
		pull, err := s.c.t.startStream(sreq, window)
		if err != nil {
			yield(nil, err)
			return
		}
		remaining := s.req.Limit // 0 = unlimited; the server honours it too
		for {
			var pg *v2page
			select {
			case pg = <-pull.pages:
			case <-s.ctx.Done():
				s.c.t.cancelStream(pull.id)
				yield(nil, s.ctx.Err())
				return
			}
			if pg.err != nil {
				s.c.t.cancelStream(pull.id) // harmless if already deregistered
				yield(nil, pg.err)
				return
			}
			for i, o := range pg.objs {
				if !yield(o, nil) {
					s.stopAt(pull, pg, o)
					return
				}
				if remaining > 0 {
					remaining--
					if remaining == 0 {
						if i < len(pg.objs)-1 || !pg.end || pg.cursor != "" {
							s.stopAt(pull, pg, o)
						} else {
							s.setCursor("")
						}
						return
					}
				}
			}
			if pg.end {
				s.setCursor(pg.cursor)
				return
			}
			s.c.t.credit(pull.id, 1)
		}
	}
}

// stopAt records the exact resume point when the consumer stops before
// the stream is exhausted: a fallback page (epoch 0) is not resumable;
// otherwise the cursor is synthesised from the page's epoch and the last
// object seen. Pin bookkeeping: if the pusher is still running,
// cancelling it hands its pin to a cursor lease server-side; if it
// already finished having exhausted the extent (END, empty cursor), the
// epoch is re-pinned best-effort with OpLease. Snapshot streams skip the
// re-pin — their snapshot's lease holds the epoch.
func (s *pushStream) stopAt(pull *v2pull, pg *v2page, o *object.Object) {
	if pg.epoch == 0 {
		s.setCursor("")
		if !pg.end {
			s.c.t.cancelStream(pull.id)
		}
		return
	}
	s.setCursor(query.EncodeCursor(pg.epoch, o.Class, o.OID))
	if pg.end {
		if s.lease == 0 && pg.cursor == "" {
			_, _ = s.c.t.roundTrip(s.ctx, &wire.Request{Op: wire.OpLease, Epoch: pg.epoch})
		}
		return
	}
	s.c.t.cancelStream(pull.id)
}
