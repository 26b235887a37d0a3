// Package wire defines the Gaea client/server protocol: length-prefixed
// gob frames carrying typed requests and responses over a TCP or unix
// stream.
//
// Framing. Every message is one frame: a 4-byte big-endian payload
// length followed by a standalone gob blob. Each frame is encoded with a
// fresh gob stream, so frames are self-contained — a reader can resync
// at any frame boundary, a reconnecting client starts clean, and a
// malformed peer can be cut off after one bounded read (frames larger
// than the configured maximum are refused before allocation).
//
// The protocol is strictly request/response: the client sends one
// Request frame and reads one Response frame. There is no server push
// and no interleaving, which keeps one connection usable by a simple
// mutex-guarded client and makes server shutdown draining trivial
// (every in-flight unit of work is one request). Streaming queries are
// served as pages: each page is one round trip, and the epoch-carrying
// cursor in the response lets the next page — on this connection or any
// later one — resume the exact MVCC snapshot.
//
// Errors cross the wire as a Code plus the server-side error text. Codes
// map 1:1 onto the public error taxonomy (gaea.ErrNotFound, ErrConflict,
// …), so a remote caller branches with errors.Is exactly like an
// embedded one.
package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"gaea/internal/catalog"
	"gaea/internal/concept"
	"gaea/internal/experiment"
	"gaea/internal/object"
	"gaea/internal/petri"
	"gaea/internal/process"
	"gaea/internal/query"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/task"
	"gaea/internal/value"
)

// DefaultMaxFrame bounds a single frame (64 MiB — enough for a page of
// image-carrying objects, small enough to refuse a garbage length
// prefix before allocating).
const DefaultMaxFrame = 64 << 20

// ErrFrameTooLarge is returned when a peer announces a frame above the
// configured maximum.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// v1BufPool recycles the scratch buffers WriteFrame and ReadFrame used
// to allocate per frame: the gob encoder still allocates its own state,
// but the frame-sized buffer churn — the dominant allocation for large
// pages — is gone, and a frame goes out in ONE write (header and body
// together) instead of two.
var v1BufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledV1Buf bounds what the pool retains; outsized page buffers are
// left to the GC rather than parked forever.
const maxPooledV1Buf = 1 << 20

// WriteFrame gob-encodes msg and writes it as one length-prefixed frame.
func WriteFrame(w io.Writer, msg any) error {
	buf := v1BufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledV1Buf {
			v1BufPool.Put(buf)
		}
	}()
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0}) // length prefix, patched below
	if err := gob.NewEncoder(buf).Encode(msg); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	b := buf.Bytes()
	if int64(len(b)-4) > math.MaxUint32 {
		// The length prefix is 32-bit; silently truncating it would
		// desynchronise the stream.
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(b)-4)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	_, err := w.Write(b)
	return err
}

// v1ReadPool recycles ReadFrame's body buffers.
var v1ReadPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// ReadFrame reads one length-prefixed frame and gob-decodes it into msg.
// maxFrame <= 0 takes DefaultMaxFrame.
func ReadFrame(r io.Reader, maxFrame int, msg any) error {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	// Compare in 64 bits: on 32-bit platforms int(n) can wrap negative
	// for a hostile length prefix and slip past the bound.
	if int64(n) > int64(maxFrame) {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	bp := v1ReadPool.Get().(*[]byte)
	if cap(*bp) < int(n) {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	defer func() {
		if cap(*bp) <= maxPooledV1Buf {
			v1ReadPool.Put(bp)
		}
	}()
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	// gob copies everything it decodes, so the pooled buffer is free for
	// reuse the moment Decode returns.
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(msg); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// Op names a request type.
type Op uint8

// The protocol operations.
const (
	OpHello        Op = iota + 1 // handshake: register the connection's user
	OpBegin                      // fetch the current commit epoch for a session's read view
	OpStats                      // kernel + server counters
	OpQuery                      // buffered query (Kernel.Query)
	OpStream                     // one page of a streaming query (cursor resume)
	OpCommit                     // a whole staged session in one round trip
	OpSnapOpen                   // pin a snapshot under a server-side lease
	OpSnapGet                    // Snapshot.Get
	OpSnapQuery                  // Snapshot.Query (retrieve-only)
	OpSnapStream                 // one page of a snapshot stream
	OpSnapRelease                // release a snapshot lease
	OpLease                      // lease-pin a cursor epoch (client-synthesised resume points)
	OpStale                      // list stale OIDs
	OpRefresh                    // RefreshStale
	OpExplain                    // derivation history of an object
	OpExplainQuery               // query preview
	OpPrepare                    // 2PC phase one: validate + stage a session batch under a txn token
	OpDecide                     // 2PC phase two: commit (Epoch=1) or abort (Epoch=0) a prepared txn
)

// String names the op for logs and errors.
func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpBegin:
		return "begin"
	case OpStats:
		return "stats"
	case OpQuery:
		return "query"
	case OpStream:
		return "stream"
	case OpCommit:
		return "commit"
	case OpSnapOpen:
		return "snap-open"
	case OpSnapGet:
		return "snap-get"
	case OpSnapQuery:
		return "snap-query"
	case OpSnapStream:
		return "snap-stream"
	case OpSnapRelease:
		return "snap-release"
	case OpLease:
		return "lease"
	case OpStale:
		return "stale"
	case OpRefresh:
		return "refresh"
	case OpExplain:
		return "explain"
	case OpExplainQuery:
		return "explain-query"
	case OpPrepare:
		return "prepare"
	case OpDecide:
		return "decide"
	case OpStreamPush:
		return "stream-push"
	case OpSubscribeStats:
		return "subscribe-stats"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Code is a wire error code, mapped 1:1 onto the public error taxonomy.
type Code uint8

// The codes. CodeOK marks a successful response; everything else maps to
// one public sentinel on the client side.
const (
	CodeOK           Code = iota
	CodeNotFound          // gaea.ErrNotFound
	CodeClassUnknown      // gaea.ErrClassUnknown
	CodeNoPlan            // gaea.ErrNoPlan
	CodeStale             // gaea.ErrStale
	CodeConflict          // gaea.ErrConflict
	CodeSnapshotGone      // gaea.ErrSnapshotGone (includes expired leases)
	CodeClosed            // gaea.ErrClosed
	CodeBadRequest        // malformed request (query validation, bad cursor)
	CodeCanceled          // the request context was cancelled server-side
	CodeUnavailable       // server shutting down or connection limit reached
	CodeInternal          // anything unclassified
)

// String names the code.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeNotFound:
		return "not-found"
	case CodeClassUnknown:
		return "class-unknown"
	case CodeNoPlan:
		return "no-plan"
	case CodeStale:
		return "stale"
	case CodeConflict:
		return "conflict"
	case CodeSnapshotGone:
		return "snapshot-gone"
	case CodeClosed:
		return "closed"
	case CodeBadRequest:
		return "bad-request"
	case CodeCanceled:
		return "canceled"
	case CodeUnavailable:
		return "unavailable"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// CodeFor classifies an error against the internal sentinels that the
// kernel's public classification wraps (the internal cause always stays
// in the chain, so matching the internal sentinels catches errors
// classified at the gaea layer too). Order matters exactly as in the
// public taxonomy: the most specific cause wins. The server layers its
// own checks (gaea.ErrClosed, shutdown) on top before falling back here.
func CodeFor(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	case errors.Is(err, object.ErrSnapshotGone):
		return CodeSnapshotGone
	case errors.Is(err, object.ErrConflict):
		return CodeConflict
	case errors.Is(err, task.ErrStaleInput):
		return CodeStale
	case errors.Is(err, catalog.ErrClassNotFound):
		return CodeClassUnknown
	case errors.Is(err, petri.ErrNoPlan), errors.Is(err, query.ErrUnsatisfied):
		return CodeNoPlan
	case errors.Is(err, object.ErrNotFound),
		errors.Is(err, task.ErrTaskNotFound),
		errors.Is(err, process.ErrProcessNotFound),
		errors.Is(err, concept.ErrNotFound),
		errors.Is(err, experiment.ErrNotFound),
		errors.Is(err, storage.ErrNotFound):
		return CodeNotFound
	case errors.Is(err, query.ErrBadRequest), errors.Is(err, object.ErrBadAttr):
		return CodeBadRequest
	default:
		return CodeInternal
	}
}

// ProvisionalBit marks OIDs a remote session assigns at stage time:
// real OIDs are reserved server-side at Commit (one round trip for the
// whole session), so Create returns a placeholder the client maps to the
// real OID afterwards. Staged updates and deletes may reference
// provisional OIDs; the server remaps them before applying. Stored OIDs
// are dense small integers, so the top bit is unambiguous.
const ProvisionalBit uint64 = 1 << 63

// IsProvisional reports whether an OID is a remote-session placeholder.
func IsProvisional(oid object.OID) bool { return uint64(oid)&ProvisionalBit != 0 }

// Object is the wire form of an object.Object: attribute values travel
// in the storage codec's binary form (value.Encode), which round-trips
// every ADT — including images and matrices — exactly.
type Object struct {
	OID    uint64
	Class  string
	Attrs  map[string][]byte
	Extent sptemp.Extent
}

// FromObject converts a kernel object to its wire form.
func FromObject(o *object.Object) (Object, error) {
	w := Object{OID: uint64(o.OID), Class: o.Class, Extent: o.Extent}
	if len(o.Attrs) > 0 {
		w.Attrs = make(map[string][]byte, len(o.Attrs))
		for name, v := range o.Attrs {
			enc, err := value.Encode(v)
			if err != nil {
				return Object{}, fmt.Errorf("wire: attribute %q: %w", name, err)
			}
			w.Attrs[name] = enc
		}
	}
	return w, nil
}

// ToObject converts a wire object back to a kernel object.
func (w *Object) ToObject() (*object.Object, error) {
	o := &object.Object{OID: object.OID(w.OID), Class: w.Class, Extent: w.Extent}
	if len(w.Attrs) > 0 {
		o.Attrs = make(map[string]value.Value, len(w.Attrs))
		for name, enc := range w.Attrs {
			v, err := value.Decode(enc)
			if err != nil {
				return nil, fmt.Errorf("wire: attribute %q: %w", name, err)
			}
			o.Attrs[name] = v
		}
	}
	return o, nil
}

// ObjectSize approximates an object's encoded footprint (attribute
// payloads dominate; the fixed overhead term covers the rest). The
// service layer budgets stream pages with it so image-heavy classes
// page by bytes, not just by count.
func ObjectSize(w *Object) int {
	size := 96 + len(w.Class)
	for name, enc := range w.Attrs {
		size += len(name) + len(enc) + 16
	}
	return size
}

// QueryReq is the wire form of a query.Request. The user is connection
// state (set at Hello), not request state.
type QueryReq struct {
	Class       string
	Concept     string
	Pred        sptemp.Extent
	Strategies  []string
	Limit       int
	Cursor      string
	Parallelism int
}

// FromQuery converts a kernel request to its wire form.
func FromQuery(req query.Request) QueryReq {
	w := QueryReq{
		Class:       req.Class,
		Concept:     req.Concept,
		Pred:        req.Pred,
		Limit:       req.Limit,
		Cursor:      req.Cursor,
		Parallelism: req.Parallelism,
	}
	for _, s := range req.Strategies {
		w.Strategies = append(w.Strategies, string(s))
	}
	return w
}

// ToQuery converts a wire request back to a kernel request, tagging it
// with the connection's user.
func (w *QueryReq) ToQuery(user string) query.Request {
	req := query.Request{
		Class:       w.Class,
		Concept:     w.Concept,
		Pred:        w.Pred,
		User:        user,
		Limit:       w.Limit,
		Cursor:      w.Cursor,
		Parallelism: w.Parallelism,
	}
	for _, s := range w.Strategies {
		req.Strategies = append(req.Strategies, query.Strategy(s))
	}
	return req
}

// Create is one staged create in a session batch.
type Create struct {
	// Prov is the provisional OID the client assigned at stage time; the
	// response's OIDs slice reports the real OID at the same index.
	Prov uint64
	Obj  Object
	Note string
}

// BatchReq carries a whole staged remote session in one round trip.
// Updates and Deletes may reference provisional OIDs of Creates in the
// same batch.
type BatchReq struct {
	Creates []Create
	Updates []Object
	Deletes []uint64
	// ReadEpoch is the MVCC epoch the client captured at Begin: the
	// server-side session validates first-committer-wins against it,
	// exactly like an embedded session. 0 falls back to the epoch at
	// replay time (no cross-staging conflict detection).
	ReadEpoch uint64
}

// Request is one client frame.
type Request struct {
	Op    Op
	User  string    // OpHello
	Query *QueryReq // OpQuery, OpStream, OpSnapQuery, OpSnapStream, OpExplainQuery
	Batch *BatchReq // OpCommit
	Lease uint64    // OpSnapGet/Query/Stream/Release; OpStreamPush (snapshot mode)
	OID   uint64    // OpSnapGet, OpExplain
	Epoch uint64    // OpLease: the cursor epoch to keep pinned
	// Window is the initial page-credit window for OpStreamPush (v2
	// only): the server never has more un-credited pages in flight.
	Window int
	// Page is the client's per-page object-count preference for
	// OpStreamPush (v2 only; the server caps it at its own page size).
	// Query.Limit is the TOTAL limit across the whole stream.
	Page int

	// trace is the client's trace identity, propagated so the server's
	// span tree shares the caller's trace ID. It is deliberately
	// unexported: gob never sees unexported fields, so v1 request frames
	// stay byte-for-byte identical whether or not tracing is on — only
	// the v2 binary codec carries it, under its own mask bit.
	trace uint64
	// parent is the caller's span ID within trace, so a relaying hop
	// (the federation router) can parent the server's spans under its
	// own span instead of the trace root — that is what renders the
	// client→router→shard tree as three levels rather than two. Carried
	// only when trace is set; 0 means "parent under the trace root",
	// which is exactly the pre-federation behaviour.
	parent uint64
}

// SetTrace stamps the request with the caller's trace identity
// (0 clears it; v1 frames never carry it).
func (r *Request) SetTrace(id uint64) { r.trace = id }

// TraceID reports the propagated trace identity (0 = untraced).
func (r *Request) TraceID() uint64 { return r.trace }

// SetParentSpan stamps the caller's span ID (meaningful only alongside
// SetTrace; relaying hops use it to deepen the remote span tree).
func (r *Request) SetParentSpan(id uint64) { r.parent = id }

// ParentSpan reports the propagated parent span (0 = trace root).
func (r *Request) ParentSpan() uint64 { return r.parent }

// ResultPayload is the wire form of a query.Result.
type ResultPayload struct {
	OIDs     []uint64
	How      []string
	Stale    []bool
	TasksRun []uint64
	PlanText string
	Epoch    uint64
}

// FromResult converts a kernel result to its wire form.
func FromResult(res *query.Result) *ResultPayload {
	p := &ResultPayload{PlanText: res.PlanText, Epoch: res.Epoch, Stale: res.Stale}
	for _, oid := range res.OIDs {
		p.OIDs = append(p.OIDs, uint64(oid))
	}
	for _, h := range res.How {
		p.How = append(p.How, string(h))
	}
	for _, t := range res.TasksRun {
		p.TasksRun = append(p.TasksRun, uint64(t))
	}
	return p
}

// ToResult converts a wire payload back to a kernel result.
func (p *ResultPayload) ToResult() *query.Result {
	res := &query.Result{PlanText: p.PlanText, Epoch: p.Epoch, Stale: p.Stale}
	for _, oid := range p.OIDs {
		res.OIDs = append(res.OIDs, object.OID(oid))
	}
	for _, h := range p.How {
		res.How = append(res.How, query.Strategy(h))
	}
	for _, t := range p.TasksRun {
		res.TasksRun = append(res.TasksRun, task.ID(t))
	}
	return res
}

// StatsPayload reports kernel stats plus the server's own counters.
type StatsPayload struct {
	// Kernel is the kernel's Stats() line.
	Kernel string
	// OpenConns is the number of currently accepted connections.
	OpenConns int64
	// ActiveSessions counts in-flight session commits.
	ActiveSessions int64
	// ActiveStreams counts in-flight stream page requests.
	ActiveStreams int64
	// ActiveLeases counts live snapshot/cursor leases (pinned epochs).
	ActiveLeases int64
	// LeaseExpiries counts leases the janitor expired since start —
	// abandoned clients whose pins were reclaimed.
	LeaseExpiries int64
	// InFlight counts requests currently executing across all
	// connections (v2 multiplexing admits many per connection).
	InFlight int64
	// MaxInFlightPerConn is the high-water mark of concurrent requests
	// observed on any single connection since start.
	MaxInFlightPerConn int64
	// PushedPages counts v2 server-push stream pages sent since start.
	PushedPages int64
	// BytesAvoided counts record bytes shipped on the v2 raw path without
	// a value in them being decoded — bytes that v1 would have decoded
	// and re-encoded.
	BytesAvoided int64
	// ObsJSON carries the kernel's full observability export — the
	// structured stats snapshot, recent traces, and the slow-op log — as
	// one JSON blob (gaea.ObsExport). JSON keeps the wire layer ignorant
	// of the snapshot's shape: new instruments never touch the codec.
	// Absent from old peers; String() ignores it, so the stats verb's
	// output is unchanged.
	ObsJSON []byte
}

// String renders the combined stats line the CLI prints.
func (s *StatsPayload) String() string {
	return fmt.Sprintf("%s server[conns=%d sessions=%d streams=%d leases=%d lease_expiries=%d inflight=%d max_inflight_conn=%d pushed_pages=%d bytes_avoided=%d]",
		s.Kernel, s.OpenConns, s.ActiveSessions, s.ActiveStreams, s.ActiveLeases, s.LeaseExpiries,
		s.InFlight, s.MaxInFlightPerConn, s.PushedPages, s.BytesAvoided)
}

// Response is one server frame.
type Response struct {
	Code Code
	Err  string // server-side error text (Code != CodeOK)

	Result  *ResultPayload // OpQuery, OpSnapQuery
	Objects []Object       // OpStream, OpSnapStream pages; OpSnapGet (one)
	Cursor  string         // OpStream, OpSnapStream: resume token ("" = exhausted)
	Epoch   uint64         // OpSnapOpen, stream pages: the pinned snapshot epoch
	Lease   uint64         // OpSnapOpen: lease id
	OIDs    []uint64       // OpCommit: real OIDs (parallel to Creates); OpStale
	N       int            // OpRefresh: refreshed count
	Text    string         // OpExplain, OpExplainQuery
	Stats   *StatsPayload  // OpStats
	// Raw carries OpSnapGet's object as a GOB3 record on the v2 raw path:
	// the stored value bytes, undecoded, inside the self-describing
	// header object.Store.GetRawAt re-assembles (decode with
	// object.DecodeWire); v1 never sets it.
	Raw *RawObject
}
