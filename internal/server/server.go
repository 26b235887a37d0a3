// Package server implements the Gaea network service: a multiplexing
// server speaking the internal/wire protocol over TCP or unix sockets.
//
// The server is written against the narrow Backend interface below
// rather than the concrete kernel, so it lives under internal/ without
// an import cycle; package gaea adapts *gaea.Kernel onto it and exposes
// the public Kernel.NewServer surface.
//
// Three design points carry the remote semantics:
//
//   - Remote sessions are one round trip. The client stages creates,
//     updates, and deletes locally under provisional OIDs and ships the
//     whole batch as one OpCommit; the server replays it into a real
//     kernel session (reserve → stage → commit) and answers with the
//     real OIDs. Kernel atomicity and first-committer-wins validation
//     apply unchanged.
//
//   - Streaming queries are pushed in pages served at an explicitly
//     pinned MVCC epoch; the epoch-carrying cursor goes back to the
//     client, and a stream that ends early transfers its pin into a
//     lease so the snapshot survives — across reconnects — without the
//     client holding a connection open.
//
//   - Every pin a remote holds is leased. Snapshot opens and stream
//     cursors pin epochs under a TTL that each touch renews; a janitor
//     expires abandoned leases so a crashed or wandered-off client can
//     never wedge the MVCC GC horizon.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/query"
	"gaea/internal/wire"
)

// Session is the mutation surface the server replays a remote batch
// into; *gaea.Session satisfies it.
type Session interface {
	Create(obj *object.Object, note string) (object.OID, error)
	Update(obj *object.Object) error
	Delete(oid object.OID) error
	Commit() error
	Rollback() error
}

// PreparableSession is the optional two-phase-commit surface of a
// Session: Prepare validates the staged batch against the session's
// read epoch and locks its write set, so a later Commit cannot fail
// validation (first-committer-wins is decided at prepare time) and no
// competing writer can slip between the phases. A prepared session must
// end with Commit or Rollback; *gaea.Session satisfies it.
type PreparableSession interface {
	Session
	Prepare() error
}

// DeferredOIDs is implemented by backend sessions that assign real OIDs
// only at Commit (the federation router's cross-shard sessions, whose
// creates stay provisional until the owning shard answers). After a
// successful Commit the server remaps each Create's stage-time OID
// through Committed before answering the client.
type DeferredOIDs interface {
	Committed(staged object.OID) (object.OID, bool)
}

// Backend is the kernel surface the server exposes remotely. Package
// gaea implements it on *Kernel. Methods must be safe for concurrent
// use and return errors already classified against the public taxonomy
// (Code turns them into wire codes).
type Backend interface {
	// Begin opens a mutation session validating first-committer-wins
	// against readEpoch (0 = the current epoch at call time) and
	// recording lineage under the given user (the connection's Hello
	// user; "" = the kernel default).
	Begin(ctx context.Context, readEpoch uint64, user string) Session
	// Epoch reports the current commit epoch (a remote client's Begin).
	Epoch() uint64
	Query(ctx context.Context, req query.Request) (*query.Result, error)
	// QueryAt answers a retrieve-only request at a pinned snapshot epoch
	// (the caller holds the pin).
	QueryAt(ctx context.Context, req query.Request, epoch uint64) (*query.Result, error)
	// StreamPage drains one page of a streaming query at a pinned epoch
	// the CALLER holds: up to req.Limit objects as GOB3 records — cut
	// early (with the cursor re-minted at the last included object) once
	// their size approaches maxBytes/2 — plus the resume cursor ("" when
	// exhausted). Retrieved objects ship their stored value bytes, never
	// decoded. A fresh stream (no cursor) whose retrieval serves nothing
	// runs the fallback chain instead, unless retrieveOnly (snapshot
	// streams must not derive); fellBack reports that, because fallback
	// results commit at newer epochs and are not resumable — a fallback
	// page that cannot fit is an error, not a truncation.
	StreamPage(ctx context.Context, req query.Request, epoch uint64, retrieveOnly bool, maxBytes int) (raws []wire.RawObject, cursor string, fellBack bool, err error)
	// GetRawAt loads the version visible at a pinned epoch as a GOB3
	// record holding its stored value bytes (OpSnapGet).
	GetRawAt(oid object.OID, epoch uint64) (wire.RawObject, error)
	// Pin pins the current commit epoch; PinEpoch re-pins a specific one
	// (failing with the snapshot-gone error when it fell behind the GC
	// horizon); Unpin releases.
	Pin() uint64
	PinEpoch(epoch uint64) error
	Unpin(epoch uint64)
	// CursorEpoch extracts the snapshot epoch from a stream cursor.
	CursorEpoch(cursor string) (uint64, error)
	Stale() []object.OID
	RefreshStale(ctx context.Context) (int, error)
	Explain(oid object.OID) string
	ExplainQuery(ctx context.Context, req query.Request) (string, error)
	// Stats is the backend's own stats line, the text half of OpStats.
	Stats() string
	// Code maps an error onto its wire code (the full public taxonomy,
	// including kernel-closed).
	Code(err error) wire.Code
	// Metrics is the registry the server's counters live in, as server_*
	// gauges; it is the one place a server counter is read.
	Metrics() *obs.Registry
	// Tracer records request spans, adopting client trace IDs carried on
	// v2 frames, so one remote request is one cross-process trace.
	Tracer() *obs.Tracer
	// Events receives the server's own events (lease expiries, 2PC
	// outcomes); OpSubscribeStats streams them with the registry deltas.
	Events() *obs.EventLog
	// ObsJSON is the marshalled observability export that OpStats
	// carries beside the Stats line (nil when unavailable).
	ObsJSON() []byte
}

// Options tunes a Server.
type Options struct {
	// MaxConns caps concurrently open connections (0 = unlimited). Over
	// the cap, new connections are refused with a connection-level
	// CodeUnavailable response and closed.
	MaxConns int
	// LeaseTTL bounds how long a snapshot or stream-cursor pin survives
	// without a touch (0 = 30s). Expired leases release their pins so
	// abandoned clients cannot stall MVCC GC.
	LeaseTTL time.Duration
	// PageSize caps (and defaults) the objects per stream page (0 = 256).
	// A request Limit below the cap is honoured exactly.
	PageSize int
	// MaxFrame bounds one wire frame (0 = wire.DefaultMaxFrame).
	MaxFrame int
	// PrepareDir, when set, makes 2PC yes-votes durable: each prepared
	// transaction is fsynced there as a sidecar file before the vote is
	// answered, and New re-stages surviving sidecars after a restart so
	// a coordinator replaying its decision log still finds them. Empty
	// keeps prepares in-memory only (a crash presume-aborts them).
	PrepareDir string
}

const (
	defaultLeaseTTL = 30 * time.Second
	defaultPageSize = 256
)

func (o Options) leaseTTL() time.Duration {
	if o.LeaseTTL <= 0 {
		return defaultLeaseTTL
	}
	return o.LeaseTTL
}

func (o Options) pageSize() int {
	if o.PageSize <= 0 {
		return defaultPageSize
	}
	return o.PageSize
}

func (o Options) maxFrame() int {
	if o.MaxFrame <= 0 {
		return wire.DefaultMaxFrame
	}
	return o.MaxFrame
}

// lease is one pinned epoch with an expiry. Snapshot leases are keyed by
// id; cursor leases by epoch (one pin per epoch however many cursors
// reference it).
type lease struct {
	epoch   uint64
	expires time.Time
}

// preparedTxn is one 2PC participant vote: a session that passed
// Prepare and now awaits the coordinator's decision. It carries the
// real OIDs already answered to the coordinator and a TTL — an
// undecided prepare whose coordinator vanished is presumed aborted when
// the janitor expires it, so its write locks cannot wedge the shard.
type preparedTxn struct {
	token   uint64
	sess    Session
	real    []uint64
	expires time.Time
}

// Server serves the wire protocol for one Backend. Create with New,
// start with Serve (one goroutine per listener), stop with Shutdown.
type Server struct {
	b    Backend
	opts Options

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]bool // conn -> busy (past its handshake)
	snapLease map[uint64]*lease // by lease id
	curLease  map[uint64]*lease // by epoch
	prepared  map[uint64]*preparedTxn
	draining  bool

	nextLease    atomic.Uint64
	sessions     atomic.Int64
	streams      atomic.Int64
	expiries     atomic.Int64
	openConns    atomic.Int64
	inFlight     atomic.Int64
	maxInFlight  atomic.Int64
	pushedPages  atomic.Int64
	bytesAvoided atomic.Int64

	// Observability, from the backend: the request counter and latency
	// histogram, the tracer requests record spans into, the registry
	// stats subscriptions snapshot and the event log the server emits
	// into.
	tracer   *obs.Tracer
	requests *obs.Counter
	reqNS    *obs.Histogram
	reg      *obs.Registry
	events   *obs.EventLog

	v2mu    sync.Mutex
	v2conns map[*v2conn]struct{}

	quit     chan struct{}
	quitOnce sync.Once
	connWG   sync.WaitGroup // connection handler goroutines
	reqWG    sync.WaitGroup // in-flight requests (the drain barrier)

	baseCtx    context.Context
	baseCancel context.CancelFunc

	janitorDone chan struct{}
}

// New builds a Server over a Backend.
func New(b Backend, opts Options) *Server {
	//lint:gaea-allow ctxflow server root context lives until Shutdown, detached from any caller
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		b:           b,
		opts:        opts,
		listeners:   make(map[net.Listener]struct{}),
		conns:       make(map[net.Conn]bool),
		snapLease:   make(map[uint64]*lease),
		curLease:    make(map[uint64]*lease),
		prepared:    make(map[uint64]*preparedTxn),
		v2conns:     make(map[*v2conn]struct{}),
		quit:        make(chan struct{}),
		baseCtx:     ctx,
		baseCancel:  cancel,
		janitorDone: make(chan struct{}),
		tracer:      b.Tracer(),
		reg:         b.Metrics(),
		events:      b.Events(),
	}
	s.requests = s.reg.Counter("server_v2_requests_total")
	s.reqNS = s.reg.Histogram("server_request_ns")
	// The server's counters: read only through these gauges.
	s.reg.GaugeFunc("server_open_conns", s.openConns.Load)
	s.reg.GaugeFunc("server_active_sessions", s.sessions.Load)
	s.reg.GaugeFunc("server_active_streams", s.streams.Load)
	s.reg.GaugeFunc("server_active_leases", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.snapLease) + len(s.curLease))
	})
	s.reg.GaugeFunc("server_lease_expiries_total", s.expiries.Load)
	s.reg.GaugeFunc("server_in_flight", s.inFlight.Load)
	s.reg.GaugeFunc("server_max_in_flight_per_conn", s.maxInFlight.Load)
	s.reg.GaugeFunc("server_pushed_pages_total", s.pushedPages.Load)
	s.reg.GaugeFunc("server_bytes_avoided_total", s.bytesAvoided.Load)
	s.recoverPrepared()
	go s.janitor()
	return s
}

// traceCtx prepares one request's context for tracing: install the
// server's tracer and, when the client sent its trace identity on the
// wire, adopt it so the server-side span tree completes the client's
// trace instead of starting a fresh one.
func (s *Server) traceCtx(ctx context.Context, req *wire.Request) context.Context {
	ctx = obs.WithTracer(ctx, s.tracer)
	ctx = obs.WithRemoteTrace(ctx, req.TraceID())
	return obs.WithRemoteParent(ctx, req.ParentSpan())
}

// Serve accepts connections on l until Shutdown (which closes the
// listener). It returns nil after a clean shutdown, or the accept error
// otherwise. Multiple listeners may be served concurrently.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil // closed by Shutdown
			default:
				return err
			}
		}
		if !s.admit(conn) {
			continue
		}
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// admit registers a connection, enforcing the connection limit. A
// refused connection gets the magic echo and one connection-level
// (request ID 0) CodeUnavailable response, then is closed.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	draining := s.draining
	over := draining || (s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns)
	if !over {
		s.conns[conn] = false
	}
	s.mu.Unlock()
	if over {
		msg := "server: connection limit reached"
		if draining {
			msg = errShuttingDown.Error()
		}
		refuseConn(conn, msg)
		conn.Close()
		return false
	}
	s.openConns.Add(1)
	return true
}

// refuseConn writes the handshake reply of a refused connection: the
// magic echo, then an ID-0 CodeUnavailable response saying why.
func refuseConn(conn net.Conn, msg string) {
	f := wire.AcquireFrame(wire.F2Resp, 0)
	defer wire.ReleaseFrame(f)
	wire.EncodeResponse(f, &wire.Response{Code: wire.CodeUnavailable, Err: msg})
	b, err := f.Finish()
	if err != nil {
		return
	}
	_, _ = conn.Write(append([]byte(wire.V2Magic), b...))
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	_, ok := s.conns[conn]
	delete(s.conns, conn)
	s.mu.Unlock()
	if ok {
		s.openConns.Add(-1)
	}
	conn.Close()
}

// markBusy flags a connection that finished its handshake; Shutdown
// closes only idle connections, and settles busy ones through the drain
// barrier and the outbound flush first.
func (s *Server) markBusy(conn net.Conn) {
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		s.conns[conn] = true
	}
	s.mu.Unlock()
}

// serveConn checks the magic preamble and runs the connection.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer s.dropConn(conn)
	var magic [len(wire.V2Magic)]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil || string(magic[:]) != wire.V2Magic {
		return // not a Gaea client
	}
	s.serveV2(conn)
}

// handle dispatches one request. Every backend call runs under the
// server's base context, which Shutdown cancels after the drain window —
// wiring remote requests into the kernel's cancellation paths.
func (s *Server) handle(ctx context.Context, user string, req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpBegin:
		return &wire.Response{Epoch: s.b.Epoch()}
	case wire.OpStats:
		return &wire.Response{Stats: &wire.StatsPayload{Kernel: s.b.Stats(), ObsJSON: s.b.ObsJSON()}}
	case wire.OpQuery:
		if req.Query == nil {
			return badRequest("query payload missing")
		}
		res, err := s.b.Query(ctx, req.Query.ToQuery(user))
		if err != nil {
			return s.errResponse(err)
		}
		return &wire.Response{Result: wire.FromResult(res)}
	case wire.OpCommit:
		return s.handleCommit(ctx, user, req)
	case wire.OpPrepare:
		return s.handlePrepare(user, req)
	case wire.OpDecide:
		return s.handleDecide(req)
	case wire.OpSnapOpen:
		return s.handleSnapOpen()
	case wire.OpSnapGet, wire.OpSnapQuery, wire.OpSnapRelease:
		return s.handleSnap(ctx, user, req)
	case wire.OpLease:
		// A client that stopped mid-page synthesised a resume cursor for
		// an epoch whose page-level pin may already be gone: re-pin it
		// under a cursor lease so the cursor stays resumable.
		if err := s.b.PinEpoch(req.Epoch); err != nil {
			return s.errResponse(err)
		}
		s.leaseCursorEpoch(req.Epoch)
		return &wire.Response{Epoch: req.Epoch}
	case wire.OpStale:
		var oids []uint64
		for _, oid := range s.b.Stale() {
			oids = append(oids, uint64(oid))
		}
		return &wire.Response{OIDs: oids}
	case wire.OpRefresh:
		n, err := s.b.RefreshStale(ctx)
		if err != nil {
			return s.errResponse(err)
		}
		return &wire.Response{N: n}
	case wire.OpExplain:
		return &wire.Response{Text: s.b.Explain(object.OID(req.OID))}
	case wire.OpExplainQuery:
		if req.Query == nil {
			return badRequest("query payload missing")
		}
		text, err := s.b.ExplainQuery(ctx, req.Query.ToQuery(user))
		if err != nil {
			return s.errResponse(err)
		}
		return &wire.Response{Text: text}
	default:
		return badRequest(fmt.Sprintf("unknown op %s", req.Op))
	}
}

func badRequest(msg string) *wire.Response {
	return &wire.Response{Code: wire.CodeBadRequest, Err: "server: " + msg}
}

func (s *Server) errResponse(err error) *wire.Response {
	return &wire.Response{Code: s.b.Code(err), Err: err.Error()}
}

// replayBatch stages a remote batch into a session: reserve real OIDs
// for the creates, remap provisional references in updates and deletes.
// On error the session is rolled back. The returned OIDs are parallel
// to the batch's creates.
func (s *Server) replayBatch(sess Session, batch *wire.BatchReq) ([]uint64, *wire.Response) {
	abort := func(err error) *wire.Response {
		_ = sess.Rollback()
		return s.errResponse(err)
	}
	provMap := make(map[uint64]object.OID, len(batch.Creates))
	real := make([]uint64, 0, len(batch.Creates))
	for i := range batch.Creates {
		c := &batch.Creates[i]
		obj, err := c.Obj.ToObject()
		if err != nil {
			return nil, abort(err)
		}
		obj.OID = 0 // the server reserves the real OID
		oid, err := sess.Create(obj, c.Note)
		if err != nil {
			return nil, abort(err)
		}
		provMap[c.Prov] = oid
		real = append(real, uint64(oid))
	}
	remap := func(oid uint64) (object.OID, error) {
		if oid&wire.ProvisionalBit == 0 {
			return object.OID(oid), nil
		}
		r, ok := provMap[oid]
		if !ok {
			return 0, fmt.Errorf("%w: unknown provisional oid %d", query.ErrBadRequest, oid&^wire.ProvisionalBit)
		}
		return r, nil
	}
	for i := range batch.Updates {
		obj, err := batch.Updates[i].ToObject()
		if err != nil {
			return nil, abort(err)
		}
		if obj.OID, err = remap(batch.Updates[i].OID); err != nil {
			return nil, abort(err)
		}
		if err := sess.Update(obj); err != nil {
			return nil, abort(err)
		}
	}
	for _, oid := range batch.Deletes {
		r, err := remap(oid)
		if err != nil {
			return nil, abort(err)
		}
		if err := sess.Delete(r); err != nil {
			return nil, abort(err)
		}
	}
	return real, nil
}

// remapDeferred rewrites stage-time OIDs through a DeferredOIDs session
// after its Commit (sessions with immediate OIDs pass through).
func remapDeferred(sess Session, real []uint64) []uint64 {
	ds, ok := sess.(DeferredOIDs)
	if !ok {
		return real
	}
	for i, oid := range real {
		if r, ok := ds.Committed(object.OID(oid)); ok {
			real[i] = uint64(r)
		}
	}
	return real
}

// handleCommit replays a staged remote session into a kernel session
// and commits it in the same round trip (the single-shard fast path of
// the federation, and the only commit path for plain clients). The
// response carries the real OIDs parallel to the batch's creates.
func (s *Server) handleCommit(ctx context.Context, user string, req *wire.Request) *wire.Response {
	if req.Batch == nil {
		return badRequest("batch payload missing")
	}
	s.sessions.Add(1)
	defer s.sessions.Add(-1)
	sess := s.b.Begin(ctx, req.Batch.ReadEpoch, user)
	real, errResp := s.replayBatch(sess, req.Batch)
	if errResp != nil {
		return errResp
	}
	if err := sess.Commit(); err != nil {
		return s.errResponse(err)
	}
	return &wire.Response{OIDs: remapDeferred(sess, real)}
}

// handlePrepare is 2PC phase one: replay the batch into a session,
// validate and lock it with Prepare, and park the session under the
// coordinator's transaction token (req.Lease) until OpDecide. The
// session deliberately runs under the server's base context, not the
// request's — it outlives this request and dies only with a decision,
// the TTL janitor, or Shutdown. The response carries the creates' real
// OIDs so the coordinator can answer its client after deciding commit.
func (s *Server) handlePrepare(user string, req *wire.Request) *wire.Response {
	if req.Batch == nil {
		return badRequest("batch payload missing")
	}
	if req.Lease == 0 {
		return badRequest("prepare requires a transaction token")
	}
	s.sessions.Add(1)
	defer s.sessions.Add(-1)
	sess := s.b.Begin(s.baseCtx, req.Batch.ReadEpoch, user)
	ps, ok := sess.(PreparableSession)
	if !ok {
		_ = sess.Rollback()
		return badRequest("backend does not support two-phase commit")
	}
	real, errResp := s.replayBatch(ps, req.Batch)
	if errResp != nil {
		return errResp
	}
	if err := ps.Prepare(); err != nil {
		_ = ps.Rollback()
		return s.errResponse(err)
	}
	txn := &preparedTxn{token: req.Lease, sess: ps, real: real, expires: time.Now().Add(s.opts.leaseTTL())}
	s.mu.Lock()
	_, dup := s.prepared[req.Lease]
	if !dup {
		s.prepared[req.Lease] = txn
	}
	s.mu.Unlock()
	if dup {
		_ = ps.Rollback()
		return badRequest(fmt.Sprintf("transaction %d already prepared", req.Lease))
	}
	// The vote must be durable before it is answered: once the response
	// leaves, the coordinator may log COMMIT on its strength.
	if err := s.persistPrepare(user, req.Lease, req.Batch); err != nil {
		s.mu.Lock()
		delete(s.prepared, req.Lease)
		s.mu.Unlock()
		_ = ps.Rollback()
		return s.errResponse(err)
	}
	s.events.Emit("2pc_prepare", obs.SevInfo, "staged and locked a prepared transaction",
		map[string]string{"txn": fmt.Sprint(req.Lease), "creates": fmt.Sprint(len(req.Batch.Creates))})
	return &wire.Response{OIDs: real}
}

// handleDecide is 2PC phase two: commit (req.Epoch = 1) or abort
// (req.Epoch = 0) the prepared transaction named by req.Lease. Abort is
// idempotent — deciding an unknown token aborts nothing and succeeds,
// because the janitor may already have presumed the abort. An unknown
// token on COMMIT is an error (CodeNotFound): the prepare TTL expired
// or the shard restarted, and the coordinator must surface the
// heuristic outcome rather than assume the write landed.
func (s *Server) handleDecide(req *wire.Request) *wire.Response {
	if req.Lease == 0 {
		return badRequest("decide requires a transaction token")
	}
	commit := req.Epoch != 0
	s.mu.Lock()
	txn, ok := s.prepared[req.Lease]
	delete(s.prepared, req.Lease)
	s.mu.Unlock()
	if !ok {
		if commit {
			// The coordinator decided COMMIT for a vote this shard no longer
			// holds: a heuristic outcome it must surface, worth a durable
			// record on this side too.
			s.events.Emit("2pc_heuristic", obs.SevWarn, "commit decision for an unknown prepared transaction",
				map[string]string{"txn": fmt.Sprint(req.Lease)})
			return &wire.Response{Code: wire.CodeNotFound,
				Err: fmt.Sprintf("server: no prepared transaction %d (prepare expired or shard restarted)", req.Lease)}
		}
		return &wire.Response{}
	}
	if !commit {
		_ = txn.sess.Rollback()
		s.removePrepare(req.Lease)
		s.events.Emit("2pc_decide", obs.SevInfo, "aborted a prepared transaction",
			map[string]string{"txn": fmt.Sprint(req.Lease), "decision": "abort"})
		return &wire.Response{}
	}
	if err := txn.sess.Commit(); err != nil {
		// Prepare locked the write set, so this is not a validation race:
		// the shard itself failed (storage error, kernel closing). The
		// sidecar stays: a restart re-stages the vote for a retried decide.
		return s.errResponse(err)
	}
	s.removePrepare(req.Lease)
	s.events.Emit("2pc_decide", obs.SevInfo, "committed a prepared transaction",
		map[string]string{"txn": fmt.Sprint(req.Lease), "decision": "commit"})
	return &wire.Response{OIDs: remapDeferred(txn.sess, txn.real)}
}

// handleSnapOpen pins the current epoch under a fresh lease.
func (s *Server) handleSnapOpen() *wire.Response {
	epoch := s.b.Pin()
	id := s.nextLease.Add(1)
	s.mu.Lock()
	s.snapLease[id] = &lease{epoch: epoch, expires: time.Now().Add(s.opts.leaseTTL())}
	s.mu.Unlock()
	return &wire.Response{Lease: id, Epoch: epoch}
}

// handleSnap serves the lease-scoped snapshot operations. Every touch
// renews the lease; a missing or expired lease answers CodeSnapshotGone
// (re-snapshot for a fresh view).
func (s *Server) handleSnap(ctx context.Context, user string, req *wire.Request) *wire.Response {
	if req.Op == wire.OpSnapRelease {
		s.mu.Lock()
		l, ok := s.snapLease[req.Lease]
		delete(s.snapLease, req.Lease)
		s.mu.Unlock()
		if ok {
			s.b.Unpin(l.epoch)
		}
		return &wire.Response{}
	}
	l, errResp := s.touchLease(req.Lease)
	if errResp != nil {
		return errResp
	}
	switch req.Op {
	case wire.OpSnapGet:
		// Ship the backend's record as it is (the client decodes it with
		// object.DecodeWire).
		raw, err := s.b.GetRawAt(object.OID(req.OID), l.epoch)
		if err != nil {
			return s.errResponse(err)
		}
		if size := raw.Size(); size > s.opts.maxFrame() {
			return &wire.Response{Code: wire.CodeBadRequest,
				Err: fmt.Sprintf("server: object %d (%d bytes) exceeds the frame limit %d", req.OID, size, s.opts.maxFrame())}
		}
		s.bytesAvoided.Add(int64(len(raw.Rec)))
		return &wire.Response{Raw: &raw, Epoch: l.epoch}
	case wire.OpSnapQuery:
		if req.Query == nil {
			return badRequest("query payload missing")
		}
		res, err := s.b.QueryAt(ctx, req.Query.ToQuery(user), l.epoch)
		if err != nil {
			return s.errResponse(err)
		}
		return &wire.Response{Result: wire.FromResult(res), Epoch: l.epoch}
	default:
		return badRequest(fmt.Sprintf("bad snapshot op %s", req.Op))
	}
}

// touchLease renews a snapshot lease, answering nil and the
// snapshot-gone response when it is missing or expired.
func (s *Server) touchLease(id uint64) (*lease, *wire.Response) {
	s.mu.Lock()
	l, ok := s.snapLease[id]
	if ok {
		l.expires = time.Now().Add(s.opts.leaseTTL())
	}
	s.mu.Unlock()
	if !ok {
		return nil, &wire.Response{Code: wire.CodeSnapshotGone, Err: "server: snapshot lease expired or released"}
	}
	return l, nil
}

// leaseCursorEpoch transfers a pin the caller holds on epoch into the
// cursor-lease table: one pin per epoch, expiry extended on every touch.
// If the epoch is already leased the extra pin is released.
func (s *Server) leaseCursorEpoch(epoch uint64) {
	expires := time.Now().Add(s.opts.leaseTTL())
	s.mu.Lock()
	l, ok := s.curLease[epoch]
	if ok {
		if expires.After(l.expires) {
			l.expires = expires
		}
	} else {
		s.curLease[epoch] = &lease{epoch: epoch, expires: expires}
	}
	s.mu.Unlock()
	if ok {
		s.b.Unpin(epoch) // the lease already holds one pin
	}
}

// janitor expires abandoned leases so their pins cannot hold the MVCC GC
// horizon back forever.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := time.NewTicker(s.janitorInterval())
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case now := <-tick.C:
			var drop []uint64
			var presumeAbort []*preparedTxn
			s.mu.Lock()
			for id, l := range s.snapLease {
				if now.After(l.expires) {
					drop = append(drop, l.epoch)
					delete(s.snapLease, id)
				}
			}
			for epoch, l := range s.curLease {
				if now.After(l.expires) {
					drop = append(drop, l.epoch)
					delete(s.curLease, epoch)
				}
			}
			for token, txn := range s.prepared {
				if now.After(txn.expires) {
					presumeAbort = append(presumeAbort, txn)
					delete(s.prepared, token)
				}
			}
			s.mu.Unlock()
			for _, epoch := range drop {
				s.b.Unpin(epoch)
				s.expiries.Add(1)
				s.events.Emit("lease_expiry", obs.SevWarn, "abandoned lease released its pin",
					map[string]string{"epoch": fmt.Sprint(epoch)})
			}
			// Presumed abort: an undecided prepare whose coordinator went
			// silent rolls back, releasing its write locks (and its
			// durable sidecar, if any). A late decide(commit) for it
			// answers CodeNotFound.
			for _, txn := range presumeAbort {
				_ = txn.sess.Rollback()
				s.removePrepare(txn.token)
				s.expiries.Add(1)
				s.events.Emit("2pc_presume_abort", obs.SevWarn, "undecided prepare expired and rolled back",
					map[string]string{"txn": fmt.Sprint(txn.token)})
			}
		}
	}
}

func (s *Server) janitorInterval() time.Duration {
	iv := s.opts.leaseTTL() / 4
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	if iv > time.Second {
		iv = time.Second
	}
	return iv
}

// Shutdown stops the server gracefully: stop accepting, let in-flight
// requests finish (a stream stops at its next page, handing its pin to
// a resume lease), then close every connection and release every
// leased pin. If ctx expires first, in-flight kernel work is
// cancelled through the per-request context and connections are closed
// anyway. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.quitOnce.Do(func() { close(s.quit) })
	s.mu.Lock()
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	// Close idle connections now — they have not finished their
	// handshake. Connections past it are busy for life: the drain
	// barrier and the outbound flush below settle them first.
	for conn, busy := range s.conns {
		if !busy {
			conn.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // cancel in-flight kernel work
	}
	// Connections queue their final completions on an outbound writer;
	// flush them before closing the sockets (bounded by ctx — a
	// client that stopped reading cannot stall shutdown, because the
	// force-close below fails its queue and unblocks the flush).
	s.v2mu.Lock()
	vcs := make([]*v2conn, 0, len(s.v2conns))
	for vc := range s.v2conns {
		vcs = append(vcs, vc)
	}
	s.v2mu.Unlock()
	if len(vcs) > 0 {
		flushed := make(chan struct{})
		go func() {
			for _, vc := range vcs {
				_ = vc.out.Flush()
			}
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
	}
	// Force-close whatever remains, cancel any straggler kernel work,
	// wait for the handler goroutines, and release every leased pin so
	// the GC horizon is free.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.baseCancel()
	s.connWG.Wait()
	<-s.janitorDone
	s.mu.Lock()
	var epochs []uint64
	for id, l := range s.snapLease {
		epochs = append(epochs, l.epoch)
		delete(s.snapLease, id)
	}
	for epoch, l := range s.curLease {
		epochs = append(epochs, l.epoch)
		delete(s.curLease, epoch)
	}
	var undecided []*preparedTxn
	for token, txn := range s.prepared {
		undecided = append(undecided, txn)
		delete(s.prepared, token)
	}
	s.mu.Unlock()
	for _, epoch := range epochs {
		s.b.Unpin(epoch)
	}
	// Undecided prepares roll back their in-memory write locks (they
	// must not outlive the server embedding the kernel) — but their
	// durable sidecars are kept, so a restart re-stages the votes and a
	// coordinator replaying its decision log can still decide them.
	for _, txn := range undecided {
		_ = txn.sess.Rollback()
	}
	return err
}
