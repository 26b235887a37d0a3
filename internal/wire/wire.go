// Package wire defines the Gaea client/server protocol: length-prefixed
// binary frames, multiplexed by request ID, carrying typed requests,
// responses and server-pushed stream pages over a TCP or unix stream.
//
// Framing. Every message is one frame: a 4-byte big-endian length, a
// frame type, the request ID, and a body in the hand-rolled varint codec
// of v2.go. A reader refuses a frame above its configured maximum before
// allocating, so a malformed peer is cut off after one bounded read.
//
// A connection opens with an 8-byte magic and a Hello naming the
// protocol revision and the connection's user; the server echoes the
// magic and answers HelloAck, or refuses the whole connection with a
// request-ID-0 Resp (connection limit, shutdown). After that the client
// may have many requests in flight: each Req gets one Resp, in
// completion order, and a streaming query is one request answered by
// pushed Page frames under a credit window. Every page ships its objects
// as self-describing records (RawObject) — the one object-page form —
// and the final page carries the epoch-carrying resume cursor.
//
// Errors cross the wire as a Code plus the server-side error text. Codes
// map 1:1 onto the public error taxonomy (gaea.ErrNotFound, ErrConflict,
// …), so a remote caller branches with errors.Is exactly like an
// embedded one.
package wire

import (
	"context"
	"errors"
	"fmt"

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

// Op names a request type.
type Op uint8

// The protocol operations. The numbers are fixed: the gaps (1, 5, 10)
// belonged to retired paged-protocol ops, and a server answers any op it
// does not know with CodeBadRequest.
const (
	OpBegin        Op = 2  // fetch the current commit epoch for a session's read view
	OpStats        Op = 3  // kernel + server counters
	OpQuery        Op = 4  // buffered query (Kernel.Query)
	OpCommit       Op = 6  // a whole staged session in one round trip
	OpSnapOpen     Op = 7  // pin a snapshot under a server-side lease
	OpSnapGet      Op = 8  // Snapshot.Get
	OpSnapQuery    Op = 9  // Snapshot.Query (retrieve-only)
	OpSnapRelease  Op = 11 // release a snapshot lease
	OpLease        Op = 12 // lease-pin a cursor epoch (client-synthesised resume points)
	OpStale        Op = 13 // list stale OIDs
	OpRefresh      Op = 14 // RefreshStale
	OpExplain      Op = 15 // derivation history of an object
	OpExplainQuery Op = 16 // query preview
	OpPrepare      Op = 17 // 2PC phase one: validate + stage a session batch under a txn token
	OpDecide       Op = 18 // 2PC phase two: commit (Epoch=1) or abort (Epoch=0) a prepared txn
)

// String names the op for logs and errors.
func (o Op) String() string {
	switch o {
	case OpBegin:
		return "begin"
	case OpStats:
		return "stats"
	case OpQuery:
		return "query"
	case OpCommit:
		return "commit"
	case OpSnapOpen:
		return "snap-open"
	case OpSnapGet:
		return "snap-get"
	case OpSnapQuery:
		return "snap-query"
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
//
//lint:gaea-allow deadcode test helper: client's tests tell staged OIDs from committed ones
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
	Query *QueryReq // OpQuery, OpSnapQuery, OpExplainQuery, OpStreamPush
	Batch *BatchReq // OpCommit, OpPrepare
	Lease uint64    // OpSnapGet/Query/Release; OpStreamPush (snapshot mode)
	OID   uint64    // OpSnapGet, OpExplain
	Epoch uint64    // OpLease: the cursor epoch to keep pinned
	// Window is the initial page-credit window for OpStreamPush: the
	// server never has more un-credited pages in flight.
	Window int
	// Page is the client's per-page object-count preference for
	// OpStreamPush (the server caps it at its own page size).
	// Query.Limit is the TOTAL limit across the whole stream.
	Page int

	// trace is the client's trace identity, propagated so the server's
	// span tree shares the caller's trace ID. It travels under its own
	// mask bit, so an untraced request pays nothing for it.
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
// (0 clears it).
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

// StatsPayload answers OpStats: the backend's stats line and its
// observability export. The server's own counters are server_* gauges
// inside the export, so the codec never learns a counter's name.
type StatsPayload struct {
	// Kernel is the backend's Stats() line.
	Kernel string
	// ObsJSON is the backend's full observability export (gaea.ObsExport
	// as JSON): the structured stats snapshot with the metrics registry,
	// recent traces and the slow-op log.
	ObsJSON []byte
}

// Response is one server frame.
type Response struct {
	Code Code
	Err  string // server-side error text (Code != CodeOK)

	Result *ResultPayload // OpQuery, OpSnapQuery
	Epoch  uint64         // OpBegin: the commit epoch; OpSnapOpen, OpSnapGet, OpLease: the pinned one
	Lease  uint64         // OpSnapOpen: lease id
	OIDs   []uint64       // OpCommit, OpPrepare, OpDecide: real OIDs (parallel to Creates); OpStale
	N      int            // OpRefresh: refreshed count
	Text   string         // OpExplain, OpExplainQuery
	Stats  *StatsPayload  // OpStats
	// Raw carries OpSnapGet's object as a GOB3 record: the stored value
	// bytes, undecoded, inside the self-describing header
	// object.Store.GetRawAt re-assembles (decode with object.DecodeWire).
	Raw *RawObject
}
