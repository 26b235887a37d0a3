// Package client is the Go client for a served Gaea kernel — and the
// backend-neutral surface that lets one workload run unchanged against
// an embedded kernel or a `gaea serve` endpoint.
//
// The Kernel interface mirrors the method set of *gaea.Kernel that a
// data workload uses: sessions, buffered and streaming queries,
// snapshots, staleness, stats. Embed wraps an in-process *gaea.Kernel
// onto it; Dial connects to a server over TCP or a unix socket. Code
// written against client.Kernel — the examples and the remote
// benchmarks — cannot tell the difference except in latency.
//
// Remote semantics, where they differ from embedded:
//
//   - Sessions stage locally and the whole batch commits in ONE round
//     trip (Begin costs one lightweight epoch fetch so
//     first-committer-wins validation matches embedded semantics).
//     Create returns a provisional OID (top bit set); the real OID is
//     reserved server-side at Commit and available from
//     Session.Committed afterwards. Staged updates and deletes may
//     reference provisional OIDs freely. Validation that the embedded
//     kernel performs eagerly at stage time happens at Commit.
//
//   - Streams are server-push: one request, then pages arrive ahead of
//     the consumer under a credit window. The epoch-carrying cursor a
//     stream stops at means a NEW connection — after a crash, a
//     reconnect, or on a different client entirely — resumes the exact
//     MVCC snapshot, with no skipped and no phantom objects. The server
//     holds the snapshot pin under a lease; a client that wanders off
//     simply lets the lease expire.
//
//   - Snapshots are leases. Abandoning a remote snapshot without
//     Release is safe — the server expires it — but subsequent use
//     answers gaea.ErrSnapshotGone.
//
// Every error is classified against the same public taxonomy as the
// embedded API: errors.Is(err, gaea.ErrNotFound) and friends work
// identically. Transport failures surface as ErrUnavailable.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"net"
	"strings"
	"sync"
	"time"

	"gaea"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/wire"
)

// ErrUnavailable reports that the server refused or lost the
// connection (shutdown, connection limit, network failure).
var ErrUnavailable = wire.ErrUnavailable

// Kernel is the backend-neutral kernel surface: satisfied by the
// embedded adapter (Embed) and by a remote connection (Dial).
type Kernel interface {
	// Begin opens a mutation session; Commit applies the staged batch
	// atomically (remote: in one round trip).
	Begin(ctx context.Context) Session
	// Query answers a request, buffered.
	Query(ctx context.Context, req gaea.Request) (*gaea.Result, error)
	// QueryStream answers a request incrementally with cursor resume.
	QueryStream(ctx context.Context, req gaea.Request) (Stream, error)
	// Snapshot pins a read-only view at one MVCC commit epoch.
	Snapshot(ctx context.Context) (Snapshot, error)
	// Stale lists the OIDs currently marked stale (remote: nil on
	// transport failure).
	Stale() []object.OID
	// RefreshStale recomputes every stale derived object.
	RefreshStale(ctx context.Context) (int, error)
	// Explain renders the derivation history of an object.
	Explain(oid object.OID) string
	// ExplainQuery previews how a request would be satisfied.
	ExplainQuery(ctx context.Context, req gaea.Request) (string, error)
	// Stats reports the database summary (remote: kernel stats plus the
	// server's connection/session/stream/lease counters).
	Stats() (string, error)
	// Close releases the backend (remote: closes the connection; the
	// served kernel stays up).
	Close() error
}

// Session mirrors *gaea.Session across backends.
type Session interface {
	// Create stages a new object and returns its OID — real when
	// embedded, provisional (wire.IsProvisional) when remote.
	Create(obj *object.Object, note string) (object.OID, error)
	// Update stages an in-place replacement.
	Update(obj *object.Object) error
	// Delete stages a removal.
	Delete(oid object.OID) error
	// Commit applies the whole staged batch atomically.
	Commit() error
	// Rollback discards the staged work.
	Rollback() error
	// Committed translates an OID returned by Create into the stored
	// OID after Commit (identity for embedded sessions).
	Committed(oid object.OID) (object.OID, bool)
}

// Stream mirrors *gaea.Stream across backends.
type Stream interface {
	All() iter.Seq2[*object.Object, error]
	Cursor() string
}

// Snapshot mirrors *gaea.Snapshot across backends.
type Snapshot interface {
	Epoch() uint64
	Get(oid object.OID) (*object.Object, error)
	Query(ctx context.Context, req gaea.Request) (*gaea.Result, error)
	QueryStream(ctx context.Context, req gaea.Request) (Stream, error)
	Release()
}

// Options tunes a remote connection.
type Options struct {
	// User is recorded on derivations and tasks this connection runs.
	User string
	// MaxFrame bounds one wire frame (0 = 64 MiB).
	MaxFrame int
	// PageSize is the stream page size requested from the server when
	// the caller's Request.Limit doesn't dictate one (0 = 256; the
	// server caps it at its own page size).
	PageSize int
	// StreamWindow is the page credit window for push streams: how many
	// pages the server may push ahead of the consumer (0 = 2). Larger
	// windows hide more latency; smaller ones bound client-side
	// buffering.
	StreamWindow int
	// Tracer, when set, records a client-side span around each query and
	// commit, and propagates the trace ID to the server so the server's
	// spans for the same request join the client's trace (one remote
	// call = one cross-process trace). Nil disables client tracing.
	Tracer *gaea.Tracer
}

// defaultStreamWindow is the push-stream credit window when
// Options.StreamWindow is zero.
const defaultStreamWindow = 2

// dialTimeout bounds the connection attempt and the handshake.
const dialTimeout = 5 * time.Second

// SplitAddr parses a serve/connect address: "unix:///path/to.sock" (or
// "unix:/path") selects a unix socket, "tcp://host:port" or a bare
// "host:port" selects TCP.
func SplitAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix://"):
		return "unix", strings.TrimPrefix(addr, "unix://"), nil
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:"), nil
	case strings.HasPrefix(addr, "tcp://"):
		return "tcp", strings.TrimPrefix(addr, "tcp://"), nil
	case addr == "":
		return "", "", fmt.Errorf("client: empty address")
	default:
		return "tcp", addr, nil
	}
}

// Dial connects to a served kernel at addr ("unix:///path" or
// "host:port") and performs the hello handshake.
func Dial(addr string, opts Options) (*Conn, error) {
	network, address, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	nc, err := net.DialTimeout(network, address, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	t, err := newTransport(nc, opts)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return &Conn{opts: opts, t: t}, nil
}

// Conn is a connection to a served kernel, implementing Kernel. It is
// safe for concurrent use: concurrent calls multiplex over the one
// connection — many requests in flight, completions matched by request
// ID, so a slow query never delays an interleaved fast one. All
// server-held state a Conn references — snapshot leases, stream cursors
// — is connection-independent, so a stream or snapshot outlives the Conn
// that created it as far as the server is concerned (until its lease
// expires).
type Conn struct {
	opts Options
	t    *transport
}

func (c *Conn) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if ctx != nil {
		req.SetTrace(obs.TraceID(ctx))
		req.SetParentSpan(obs.SpanID(ctx))
	}
	return c.t.roundTrip(ctx, req)
}

// RoundTrip issues one raw wire request on this connection and returns
// the raw response (or the transport error). It is the escape hatch the
// federation router uses to speak ops the Kernel surface does not model
// (prepare/decide fan-out, shard-directed leases); the signature names
// internal wire types, so only in-module callers can reach it. Trace
// and parent-span IDs are stamped from ctx like every other call.
func (c *Conn) RoundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	return c.roundTrip(ctx, req)
}

// traced installs the connection's tracer (if any) on ctx so obs.Start
// calls below open spans against it.
func (c *Conn) traced(ctx context.Context) context.Context {
	if c.opts.Tracer == nil {
		return ctx
	}
	return obs.WithTracer(ctx, c.opts.Tracer)
}

// Close closes the connection, aborting any in-flight calls (they get a
// transport error). Server-side leases this connection opened expire on
// their own. Idempotent.
func (c *Conn) Close() error { return c.t.close() }

// defaultRequestTimeout bounds round trips that carry no context (Stats,
// Explain, snapshot Get, lease renewals — all cheap server-side): a
// silently-partitioned peer must not hang them forever. Operations that
// can legitimately run long (queries with derivation, RefreshStale,
// commits) take the caller's context instead.
const defaultRequestTimeout = 30 * time.Second

// Query implements Kernel.
func (c *Conn) Query(ctx context.Context, req gaea.Request) (*gaea.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(c.traced(ctx), "client/query")
	defer sp.End()
	sp.Annotate("class", req.Class)
	q := wire.FromQuery(req)
	resp, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpQuery, Query: &q})
	if err != nil {
		sp.Annotate("error", err.Error())
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("client: malformed query response")
	}
	return resp.Result.ToResult(), nil
}

// ExplainQuery implements Kernel.
func (c *Conn) ExplainQuery(ctx context.Context, req gaea.Request) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	q := wire.FromQuery(req)
	resp, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpExplainQuery, Query: &q})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// Explain implements Kernel. Transport failures render as an error line
// (the embedded Explain has no error path).
func (c *Conn) Explain(oid object.OID) string {
	resp, err := c.roundTrip(nil, &wire.Request{Op: wire.OpExplain, OID: uint64(oid)})
	if err != nil {
		return fmt.Sprintf("explain %d: %v\n", oid, err)
	}
	return resp.Text
}

// Stale implements Kernel. Transport failures yield nil.
func (c *Conn) Stale() []object.OID {
	resp, err := c.roundTrip(nil, &wire.Request{Op: wire.OpStale})
	if err != nil {
		return nil
	}
	var oids []object.OID
	for _, oid := range resp.OIDs {
		oids = append(oids, object.OID(oid))
	}
	return oids
}

// RefreshStale implements Kernel.
func (c *Conn) RefreshStale(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	resp, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpRefresh})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Stats implements Kernel: the served backend's stats line, then the
// server's counters as read from the export's server_* gauges.
func (c *Conn) Stats() (string, error) {
	line, ex, err := c.stats()
	if err != nil {
		return "", err
	}
	return line + " " + gaea.ServerStatsOf(ex.Stats.Metrics).String(), nil
}

// Observe pulls the served backend's observability export: the
// structured stats snapshot with its metrics registry (the server's
// counters are its server_* gauges), recent traces and the slow-op log.
func (c *Conn) Observe() (*gaea.ObsExport, error) {
	_, ex, err := c.stats()
	return ex, err
}

// stats runs one OpStats round trip: the backend's line and its export.
func (c *Conn) stats() (string, *gaea.ObsExport, error) {
	resp, err := c.roundTrip(nil, &wire.Request{Op: wire.OpStats})
	if err != nil {
		return "", nil, err
	}
	if resp.Stats == nil {
		return "", nil, fmt.Errorf("client: malformed stats response")
	}
	var ex gaea.ObsExport
	if err := json.Unmarshal(resp.Stats.ObsJSON, &ex); err != nil {
		return "", nil, fmt.Errorf("client: malformed observability export: %v", err)
	}
	return resp.Stats.Kernel, &ex, nil
}

// Begin implements Kernel. One lightweight round trip captures the
// session's MVCC read epoch, so first-committer-wins validation matches
// embedded semantics exactly; staging is then local and free, and the
// whole staged batch commits in ONE round trip. If the epoch fetch
// fails, the failure surfaces from every session operation.
func (c *Conn) Begin(ctx context.Context) Session {
	s := &remoteSession{c: c, ctx: ctx}
	if err := ctx.Err(); err != nil {
		s.broken = err
		return s
	}
	resp, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpBegin})
	if err != nil {
		s.broken = err
		return s
	}
	s.readEpoch = resp.Epoch
	return s
}

// Snapshot implements Kernel: pins a server-side snapshot under a
// lease. Keep using it (any op renews the lease) or Release it; an
// abandoned snapshot expires on its own and then answers
// gaea.ErrSnapshotGone.
func (c *Conn) Snapshot(ctx context.Context) (Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpSnapOpen})
	if err != nil {
		return nil, err
	}
	return &remoteSnapshot{c: c, lease: resp.Lease, epoch: resp.Epoch}, nil
}

// QueryStream implements Kernel: one request starts a server-push
// stream whose pages arrive ahead of the consumer under a credit window;
// the cursor resumes the exact snapshot on any connection.
func (c *Conn) QueryStream(ctx context.Context, req gaea.Request) (Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &pushStream{c: c, ctx: ctx, req: req, cursor: req.Cursor}, nil
}

// remoteSnapshot is a lease-backed server-side snapshot.
type remoteSnapshot struct {
	c        *Conn
	lease    uint64
	epoch    uint64
	released sync.Once
}

func (s *remoteSnapshot) Epoch() uint64 { return s.epoch }

// Release lets the server unpin the snapshot immediately (idempotent;
// otherwise the lease expires on its own).
func (s *remoteSnapshot) Release() {
	s.released.Do(func() {
		_, _ = s.c.roundTrip(nil, &wire.Request{Op: wire.OpSnapRelease, Lease: s.lease})
	})
}

func (s *remoteSnapshot) Get(oid object.OID) (*object.Object, error) {
	resp, err := s.c.roundTrip(nil, &wire.Request{Op: wire.OpSnapGet, Lease: s.lease, OID: uint64(oid)})
	if err != nil {
		return nil, err
	}
	if resp.Raw == nil {
		return nil, fmt.Errorf("client: malformed snapshot get response")
	}
	return object.DecodeWire(resp.Raw.Rec, resp.Raw.Blobs)
}

func (s *remoteSnapshot) Query(ctx context.Context, req gaea.Request) (*gaea.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q := wire.FromQuery(req)
	resp, err := s.c.roundTrip(ctx, &wire.Request{Op: wire.OpSnapQuery, Lease: s.lease, Query: &q})
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("client: malformed query response")
	}
	return resp.Result.ToResult(), nil
}

func (s *remoteSnapshot) QueryStream(ctx context.Context, req gaea.Request) (Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &pushStream{c: s.c, ctx: ctx, req: req, lease: s.lease, cursor: req.Cursor}, nil
}

// remoteSession stages mutations locally and ships the whole batch as
// one OpCommit round trip.
type remoteSession struct {
	c   *Conn
	ctx context.Context

	mu        sync.Mutex
	broken    error // Begin failed; every op reports it
	readEpoch uint64
	done      bool
	nextProv  uint64
	creates   []wire.Create
	createIdx map[uint64]int
	updates   []wire.Object
	updateIdx map[uint64]int
	deletes   []uint64
	deleteIdx map[uint64]struct{}
	committed map[object.OID]object.OID
}

func (s *remoteSession) check() error {
	if s.broken != nil {
		return s.broken
	}
	if s.done {
		return fmt.Errorf("%w: session finished", gaea.ErrClosed)
	}
	return nil
}

// Create stages a new object under a provisional OID; the real OID is
// reserved at Commit (Committed translates). Validation happens at
// Commit — the one round trip — not at stage time.
func (s *remoteSession) Create(obj *object.Object, note string) (object.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return 0, err
	}
	w, err := wire.FromObject(obj)
	if err != nil {
		return 0, err
	}
	s.nextProv++
	prov := wire.ProvisionalBit | s.nextProv
	w.OID = prov
	if s.createIdx == nil {
		s.createIdx = make(map[uint64]int)
	}
	s.createIdx[prov] = len(s.creates)
	s.creates = append(s.creates, wire.Create{Prov: prov, Obj: w, Note: note})
	return object.OID(prov), nil
}

// Update stages an in-place replacement; obj.OID may be provisional.
func (s *remoteSession) Update(obj *object.Object) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return err
	}
	oid := uint64(obj.OID)
	if _, staged := s.deleteIdx[oid]; staged {
		return fmt.Errorf("%w: object %d is staged for deletion in this session", gaea.ErrConflict, obj.OID)
	}
	w, err := wire.FromObject(obj)
	if err != nil {
		return err
	}
	if i, staged := s.createIdx[oid]; staged {
		w.OID = oid
		note := s.creates[i].Note
		s.creates[i] = wire.Create{Prov: oid, Obj: w, Note: note}
		return nil
	}
	if s.updateIdx == nil {
		s.updateIdx = make(map[uint64]int)
	}
	if i, staged := s.updateIdx[oid]; staged {
		s.updates[i] = w
		return nil
	}
	s.updateIdx[oid] = len(s.updates)
	s.updates = append(s.updates, w)
	return nil
}

// Delete stages a removal; deleting a provisional OID discards the
// staged create.
func (s *remoteSession) Delete(oid object.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return err
	}
	id := uint64(oid)
	if i, staged := s.createIdx[id]; staged {
		// Drop the staged create (order of surviving creates preserved).
		s.creates = append(s.creates[:i], s.creates[i+1:]...)
		delete(s.createIdx, id)
		for p, j := range s.createIdx {
			if j > i {
				s.createIdx[p] = j - 1
			}
		}
		return nil
	}
	if i, staged := s.updateIdx[id]; staged {
		s.updates = append(s.updates[:i], s.updates[i+1:]...)
		delete(s.updateIdx, id)
		for p, j := range s.updateIdx {
			if j > i {
				s.updateIdx[p] = j - 1
			}
		}
	}
	if s.deleteIdx == nil {
		s.deleteIdx = make(map[uint64]struct{})
	}
	if _, staged := s.deleteIdx[id]; staged {
		return nil
	}
	s.deleteIdx[id] = struct{}{}
	s.deletes = append(s.deletes, id)
	return nil
}

// Commit ships the staged batch as one round trip. On success the
// provisional→real OID mapping is available from Committed.
func (s *remoteSession) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return err
	}
	s.done = true
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if len(s.creates)+len(s.updates)+len(s.deletes) == 0 {
		return nil
	}
	ctx, sp := obs.Start(s.c.traced(s.ctx), "client/commit")
	defer sp.End()
	resp, err := s.c.roundTrip(ctx, &wire.Request{Op: wire.OpCommit, Batch: &wire.BatchReq{
		Creates:   s.creates,
		Updates:   s.updates,
		Deletes:   s.deletes,
		ReadEpoch: s.readEpoch,
	}})
	if err != nil {
		return err
	}
	if len(resp.OIDs) != len(s.creates) {
		return fmt.Errorf("client: commit answered %d OIDs for %d creates", len(resp.OIDs), len(s.creates))
	}
	s.committed = make(map[object.OID]object.OID, len(s.creates))
	for i := range s.creates {
		s.committed[object.OID(s.creates[i].Prov)] = object.OID(resp.OIDs[i])
	}
	return nil
}

// Rollback discards the staged work (nothing ever reached the server).
func (s *remoteSession) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
	return nil
}

// Committed translates a provisional OID from Create into the stored
// OID. It answers only after a successful Commit.
func (s *remoteSession) Committed(oid object.OID) (object.OID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	real, ok := s.committed[oid]
	return real, ok
}
