package server

// The connection loop: one reader goroutine demultiplexes request frames
// onto per-request handler goroutines; one writer goroutine drains an
// outbound queue, coalescing whatever completions and stream pages are
// ready into single socket writes. A slow query never blocks the
// connection — responses return in completion order, keyed by the
// client's request ID — and streaming queries are server-push: after
// one OpStreamPush the server pushes pages as fast as the client's
// credit window allows, with no per-page round trip.

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"gaea/internal/obs"
	"gaea/internal/wire"
)

var errShuttingDown = errors.New("server: shutting down")

// v2conn is one multiplexed connection's shared state.
type v2conn struct {
	s      *Server
	nc     net.Conn
	out    *wire.OutQueue
	user   string
	ctx    context.Context // parent of every request context on this conn
	cancel context.CancelFunc

	mu   sync.Mutex
	reqs map[uint64]*v2req
	n    int64 // requests currently in flight on this connection
}

// v2req is one in-flight request's control block.
type v2req struct {
	cancel context.CancelFunc
	stream *v2stream // nil for unary requests
}

// v2stream is the flow-control state of one server-push stream: a page
// credit balance the reader goroutine tops up from Credit frames and the
// pusher goroutine draws down, one credit per page.
type v2stream struct {
	mu     sync.Mutex
	credit int
	wake   chan struct{}
}

func newV2Stream() *v2stream { return &v2stream{wake: make(chan struct{}, 1)} }

// grant adds n page credits and wakes the pusher.
func (st *v2stream) grant(n int) {
	if n <= 0 {
		return
	}
	st.mu.Lock()
	st.credit += n
	st.mu.Unlock()
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// take consumes one page credit, blocking until one is granted, the
// request is cancelled (client Cancel, disconnect, or force shutdown),
// or the server starts draining.
func (st *v2stream) take(ctx context.Context, quit <-chan struct{}) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-quit:
			return errShuttingDown
		default:
		}
		st.mu.Lock()
		if st.credit > 0 {
			st.credit--
			st.mu.Unlock()
			return nil
		}
		st.mu.Unlock()
		select {
		case <-st.wake:
		case <-ctx.Done():
			return ctx.Err()
		case <-quit:
			return errShuttingDown
		}
	}
}

// serveV2 runs one connection after its magic preamble: handshake, then
// the demultiplexing reader loop. Each admitted request runs in its own
// goroutine; all writes go through the outbound queue.
func (s *Server) serveV2(conn net.Conn) {
	fr := wire.NewFrameReader(conn, s.opts.maxFrame())
	ft, _, body, err := fr.Next()
	if err != nil || ft != wire.F2Hello {
		return
	}
	hello, err := wire.DecodeHello(body)
	if err != nil || hello.Version != wire.V2Version {
		return // a peer built against another frame layout
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	vc := &v2conn{
		s:      s,
		nc:     conn,
		out:    wire.NewOutQueue(),
		user:   hello.User,
		ctx:    ctx,
		cancel: cancel,
		reqs:   make(map[uint64]*v2req),
	}

	// A connection counts as busy for its whole life: Shutdown must
	// not sweep it as idle — the drain barrier plus the outbound flush
	// phase settle its in-flight work first.
	s.markBusy(conn)
	s.v2mu.Lock()
	s.v2conns[vc] = struct{}{}
	s.v2mu.Unlock()
	defer func() {
		s.v2mu.Lock()
		delete(s.v2conns, vc)
		s.v2mu.Unlock()
	}()

	// Handshake reply — magic echo plus HelloAck — written directly,
	// before the writer goroutine takes over the socket.
	ack := wire.AcquireFrame(wire.F2HelloAck, 0)
	wire.EncodeHello(ack, &wire.Hello2{Version: wire.V2Version})
	ab, ferr := ack.Finish()
	if ferr != nil {
		wire.ReleaseFrame(ack)
		return
	}
	hs := make([]byte, 0, len(wire.V2Magic)+len(ab))
	hs = append(hs, wire.V2Magic...)
	hs = append(hs, ab...)
	_, werr := conn.Write(hs)
	wire.ReleaseFrame(ack)
	if werr != nil {
		return
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		_ = vc.out.Run(conn)
	}()
	defer func() {
		// Reader gone: cancel every in-flight request, let the writer
		// drain what is already queued, and wait for it so the socket is
		// not closed under a write (dropConn closes it after we return).
		cancel()
		vc.out.Close()
		<-writerDone
	}()

	for {
		ft, id, body, err := fr.Next()
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// Say why before dropping the connection; id 0 marks it a
				// connection-level refusal.
				vc.refuse(0, wire.CodeBadRequest, err.Error())
				_ = vc.out.Flush()
			}
			return
		}
		switch ft {
		case wire.F2Req:
			if id == 0 {
				return // id 0 is reserved for connection-level responses
			}
			req := new(wire.Request)
			if err := wire.DecodeRequest(body, req); err != nil {
				vc.refuse(id, wire.CodeBadRequest, "server: "+err.Error())
				continue
			}
			// Admission pairs with the drain barrier: under s.mu against
			// s.draining, the request is either counted before Shutdown
			// starts waiting (and then drains to completion) or refused —
			// reqWG.Add can never race reqWG.Wait at zero.
			s.mu.Lock()
			if s.draining {
				s.mu.Unlock()
				vc.refuse(id, wire.CodeUnavailable, "server: shutting down")
				continue
			}
			s.reqWG.Add(1)
			s.mu.Unlock()
			vc.start(id, req)
		case wire.F2Credit:
			n, err := wire.DecodeCredit(body)
			if err != nil {
				return
			}
			vc.mu.Lock()
			r := vc.reqs[id]
			vc.mu.Unlock()
			if r != nil && r.stream != nil {
				r.stream.grant(n)
			}
		case wire.F2Cancel:
			vc.mu.Lock()
			r := vc.reqs[id]
			vc.mu.Unlock()
			if r != nil {
				r.cancel()
			}
		case wire.F2Hello:
			// A duplicate Hello is harmless; ignore it.
		default:
			return // unknown frame type: the framing is no longer trustworthy
		}
	}
}

// start registers one admitted request (the reqWG slot is already held)
// and spins its handler goroutine.
func (vc *v2conn) start(id uint64, req *wire.Request) {
	s := vc.s
	rctx, rcancel := context.WithCancel(vc.ctx)
	r := &v2req{cancel: rcancel}
	if req.Op == wire.OpStreamPush || req.Op == wire.OpSubscribeStats {
		r.stream = newV2Stream()
	}
	vc.mu.Lock()
	if _, dup := vc.reqs[id]; dup {
		vc.mu.Unlock()
		rcancel()
		s.reqWG.Done()
		vc.refuse(id, wire.CodeBadRequest, "server: duplicate request id")
		return
	}
	vc.reqs[id] = r
	vc.n++
	n := vc.n
	vc.mu.Unlock()
	s.inFlight.Add(1)
	for {
		max := s.maxInFlight.Load()
		if n <= max || s.maxInFlight.CompareAndSwap(max, n) {
			break
		}
	}
	switch {
	case req.Op == wire.OpSubscribeStats:
		go s.pushStatsV2(vc, id, r, rctx, req)
	case r.stream != nil:
		go s.pushStreamV2(vc, id, r, rctx, req)
	default:
		go s.handleV2(vc, id, rctx, req)
	}
}

// finish unregisters a request after its completion was queued.
func (vc *v2conn) finish(id uint64) {
	vc.mu.Lock()
	r := vc.reqs[id]
	delete(vc.reqs, id)
	if r != nil {
		vc.n--
	}
	vc.mu.Unlock()
	if r != nil {
		r.cancel()
		vc.s.inFlight.Add(-1)
	}
}

// requestStack is the frame growStack touches. A request goroutine
// starts on an 8 KiB stack and a kernel query needs more, so its stack
// grows once per request. Left to the runtime, that happens deep in the
// query path, where the copy must adjust every frame on the stack:
// newstack took 17 % of BenchmarkRemoteQuery's CPU at inflight=1 on two
// CPUs, and where the growth lands moves with the size of any frame
// above it (80 fewer bytes in handle's frame cost 12 % of that
// benchmark). Growing at the goroutine's entry copies one frame.
const requestStack = 9 << 10

// growStack grows the calling goroutine's stack to hold requestStack
// more bytes.
//
//go:noinline
func growStack() {
	var b [requestStack]byte
	stackSink(&b)
}

//go:noinline
func stackSink(b *[requestStack]byte) { b[0]++ }

// send queues a completion for id.
func (vc *v2conn) send(id uint64, resp *wire.Response) {
	f := wire.AcquireFrame(wire.F2Resp, id)
	wire.EncodeResponse(f, resp)
	_ = vc.out.Push(f)
}

func (vc *v2conn) refuse(id uint64, code wire.Code, msg string) {
	vc.send(id, &wire.Response{Code: code, Err: msg})
}

// handleV2 runs one unary request to completion.
func (s *Server) handleV2(vc *v2conn, id uint64, ctx context.Context, req *wire.Request) {
	defer s.reqWG.Done()
	growStack()
	ctx, sp := obs.Start(s.traceCtx(ctx, req), "server/"+req.Op.String())
	start := time.Now()
	resp := s.handle(ctx, vc.user, req)
	s.requests.Inc()
	s.reqNS.ObserveSince(start)
	if resp.Code != wire.CodeOK {
		sp.Annotate("code", resp.Code.String())
	}
	sp.End()
	vc.send(id, resp)
	vc.finish(id)
}

// pushStreamV2 runs one server-push stream: pages drain at a pinned
// epoch and go out under the client's credit window as raw records. A
// stream that ends early (limit, cancel, disconnect, shutdown) hands its
// pin to a cursor lease so the snapshot stays resumable; clean
// exhaustion unpins; snapshot streams ride their lease's pin and renew
// it on every page.
func (s *Server) pushStreamV2(vc *v2conn, id uint64, r *v2req, ctx context.Context, req *wire.Request) {
	defer s.reqWG.Done()
	defer vc.finish(id)
	ctx, sp := obs.Start(s.traceCtx(ctx, req), "server/"+req.Op.String())
	start := time.Now()
	defer func() {
		s.requests.Inc()
		s.reqNS.ObserveSince(start)
		sp.End()
	}()
	if req.Query == nil {
		vc.send(id, badRequest("query payload missing"))
		return
	}
	s.streams.Add(1)
	defer s.streams.Add(-1)

	st := r.stream
	window := req.Window
	if window <= 0 {
		window = 1
	}
	st.grant(window)

	q := req.Query.ToQuery(vc.user)
	pageCap := s.opts.pageSize()
	if req.Page > 0 && req.Page < pageCap {
		pageCap = req.Page
	}
	total := q.Limit // 0 = unlimited; per-page limits are minted below

	snap := req.Lease != 0
	var epoch uint64
	ownPin := false
	if snap {
		l, errResp := s.touchLease(req.Lease)
		if errResp != nil {
			vc.send(id, errResp)
			return
		}
		epoch = l.epoch
	} else if q.Cursor != "" {
		e, err := s.b.CursorEpoch(q.Cursor)
		if err != nil {
			vc.send(id, s.errResponse(err))
			return
		}
		if err := s.b.PinEpoch(e); err != nil {
			vc.send(id, s.errResponse(err))
			return
		}
		epoch, ownPin = e, true
	} else {
		epoch = s.b.Pin()
		ownPin = true
	}
	// release settles the pin when the pusher owns one: a resumable end
	// hands it to a cursor lease (the client may come back, from this
	// connection or another; the lease expires on its own if nobody
	// does), everything else unpins.
	release := func(resumable bool) {
		if !ownPin {
			return
		}
		ownPin = false
		if resumable {
			s.leaseCursorEpoch(epoch)
		} else {
			s.b.Unpin(epoch)
		}
	}

	cursor := q.Cursor
	sent := 0
	for {
		if err := st.take(ctx, s.quit); err != nil {
			// Cancelled, disconnected, or draining: keep the stream
			// resumable and best-effort report why (the queue may already
			// be down — that is fine).
			release(true)
			if errors.Is(err, errShuttingDown) {
				vc.refuse(id, wire.CodeUnavailable, err.Error())
			} else {
				vc.send(id, s.errResponse(err))
			}
			return
		}
		pq := q
		pq.Cursor = cursor
		pq.Limit = pageCap
		if total > 0 && total-sent < pageCap {
			pq.Limit = total - sent
		}
		raws, next, fellBack, err := s.b.StreamPage(ctx, pq, epoch, snap, s.opts.maxFrame())
		if err != nil {
			release(false)
			vc.send(id, s.errResponse(err))
			return
		}

		sent += len(raws)
		done := next == "" || (total > 0 && sent >= total)
		flags := byte(0)
		endCursor := ""
		pageEpoch := epoch
		if fellBack {
			// Fallback results commit at epochs newer than the stream's
			// snapshot: the page ends the stream and is not resumable
			// (epoch 0).
			done, next, pageEpoch = true, "", 0
		}
		if done {
			flags = wire.PageEnd
			endCursor = next // limit hit mid-extent: the resume point
		}
		f := wire.AcquireFrame(wire.F2Page, id)
		wire.EncodePageHeader(f, flags, pageEpoch, endCursor, len(raws))
		var payload int
		for i := range raws {
			wire.AppendRawObject(f, &raws[i])
			payload += len(raws[i].Rec)
		}
		s.pushedPages.Add(1)
		if !fellBack {
			s.bytesAvoided.Add(int64(payload))
		}
		if err := vc.out.Push(f); err != nil {
			release(true)
			return
		}
		if snap {
			// Every page renews the snapshot lease.
			if _, errResp := s.touchLease(req.Lease); errResp != nil {
				vc.send(id, errResp)
				return
			}
		}
		if done {
			release(endCursor != "")
			return
		}
		cursor = next
	}
}
