package query

// Streaming retrieval: the cursor-style counterpart of Run. Instead of
// materialising every matching object before returning, a Stream yields
// objects one at a time as the consumer pulls — the storage layer
// verifies extents lazily, objects load on demand, and the §2.1.5
// fallback chain (interpolation, derivation) only runs if the consumer
// actually drains an empty retrieval. Request.Limit caps a page and
// Request.Cursor resumes the next one, so arbitrarily large extents are
// served in bounded memory.
//
// Every stream runs against an MVCC snapshot: iteration pins a commit
// epoch (the current one at the first pull, or the cursor's; released
// when iteration stops — a stream never iterated holds no pin), all OIDs
// resolve at that epoch, and the resume cursor carries it — so a consumer
// paginating across concurrent session commits sees exactly the state of
// the first page's snapshot, with no skipped and no phantom objects.
// Between pages the cursor's epoch is leased for cursorLease: commits
// reclaim versions as soon as no snapshot can see them, so an epoch
// nothing holds is gone after the next two. A cursor whose epoch has
// fallen behind the GC horizon is refused with ErrSnapshotGone; cursors
// do not survive a kernel reopen.

import (
	"context"
	"fmt"
	"iter"
	"strconv"
	"strings"
	"sync"
	"time"

	"gaea/internal/object"
	"gaea/internal/obs"
)

// Stream is a single-use cursor over query results, backed by an
// iter.Seq2. Iterate with All (range-over-func); after iteration stops —
// because the Limit page filled, the consumer broke out, or the results
// ran dry — Cursor reports where to resume (empty when exhausted).
type Stream struct {
	seq iter.Seq2[*object.Object, error]

	mu       sync.Mutex
	cursor   string
	consumed bool
	fellBack bool
}

// All returns the underlying sequence. The stream is single-use:
// ranging a second time yields an error.
func (s *Stream) All() iter.Seq2[*object.Object, error] { return s.seq }

// cursorLease is how long a stream that stopped with a cursor keeps its
// epoch from reclamation (object.Store.Lease) for the cursor to resume:
// the service layer's default lease on a remote client's cursor.
const cursorLease = 30 * time.Second

// Cursor returns the resume token: pass it as Request.Cursor to continue
// where the iteration stopped, against the same snapshot epoch. Empty
// means the results were exhausted (or iteration has not stopped yet).
func (s *Stream) Cursor() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

func (s *Stream) setCursor(c string) {
	s.mu.Lock()
	s.cursor = c
	s.mu.Unlock()
}

// FellBack reports whether iteration was answered by the fallback chain
// (interpolation or derivation) instead of retrieval. Fallback results
// are written at epochs newer than the stream's snapshot, so they are
// NOT resumable from a cursor — the service layer refuses to mint
// resume points for them, matching the empty Cursor they report here.
func (s *Stream) FellBack() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fellBack
}

func (s *Stream) setFellBack() {
	s.mu.Lock()
	s.fellBack = true
	s.mu.Unlock()
}

func (s *Stream) claim() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.consumed {
		return false
	}
	s.consumed = true
	return true
}

// Cursor wire format: "c2|<epoch>|<class>|<last OID>". The epoch pins
// resumed pages to the first page's snapshot. Class names contain no '|'
// (they are identifiers), so the split is unambiguous.
const cursorVersion = "c2"

func encodeCursor(epoch uint64, class string, oid object.OID) string {
	return cursorVersion + "|" + strconv.FormatUint(epoch, 10) + "|" + class + "|" +
		strconv.FormatUint(uint64(oid), 10)
}

// EncodeCursor builds a resume token for the object after `oid` of
// `class` at a snapshot epoch — the token Stream iteration mints when a
// page fills. Exported for the service layer: a remote client that stops
// mid-page resumes from the last object it actually consumed.
func EncodeCursor(epoch uint64, class string, oid object.OID) string {
	return encodeCursor(epoch, class, oid)
}

// CursorEpoch extracts the snapshot epoch a cursor is pinned to. The
// service layer uses it to lease-pin a page's epoch so a disconnected
// client can come back and resume the exact snapshot.
func CursorEpoch(c string) (uint64, error) {
	epoch, _, _, err := parseCursor(c)
	return epoch, err
}

// DecodeCursor splits a cursor into its snapshot epoch, class, and the
// OID iteration resumes after. The federation router uses it to strip
// its shard tag off the resume OID before forwarding a cursor minted
// upstream back down to the shard that owns it.
func DecodeCursor(c string) (epoch uint64, class string, after object.OID, err error) {
	return parseCursor(c)
}

func parseCursor(c string) (epoch uint64, class string, after object.OID, err error) {
	parts := strings.Split(c, "|")
	if len(parts) != 4 || parts[0] != cursorVersion || parts[2] == "" {
		return 0, "", 0, fmt.Errorf("%w: malformed cursor %q", ErrBadRequest, c)
	}
	epoch, err = strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return 0, "", 0, fmt.Errorf("%w: malformed cursor %q", ErrBadRequest, c)
	}
	n, err := strconv.ParseUint(parts[3], 10, 64)
	if err != nil {
		return 0, "", 0, fmt.Errorf("%w: malformed cursor %q", ErrBadRequest, c)
	}
	return epoch, parts[2], object.OID(n), nil
}

// Stream answers a request incrementally against a snapshot pinned at
// the current commit epoch (or the cursor's epoch on resume). Validation
// (classes, cursor, pinnability) happens up front so the caller gets
// request errors immediately; all retrieval and fallback work is deferred
// to iteration, and the pin is released when iteration stops.
func (qe *Executor) Stream(ctx context.Context, req Request) (*Stream, error) {
	return qe.StreamAt(ctx, req, 0)
}

// StreamAt is Stream pinned to a specific epoch (0 = current): the entry
// point for Kernel.Snapshot streams, which must read at the snapshot's
// epoch rather than the newest one. A cursor in the request overrides
// atEpoch — the cursor's embedded epoch wins, since resuming a page
// against a different snapshot than it was cut from would break the
// no-skip/no-phantom contract.
func (qe *Executor) StreamAt(ctx context.Context, req Request, atEpoch uint64) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	classes, err := qe.targetClasses(req)
	if err != nil {
		return nil, err
	}
	strategies := req.Strategies
	if len(strategies) == 0 {
		strategies = []Strategy{Interpolate, Derive}
	}
	for _, s := range strategies {
		switch s {
		case Retrieve, Interpolate, Derive:
		default:
			return nil, fmt.Errorf("%w: unknown strategy %q", ErrBadRequest, s)
		}
	}
	startIdx, startAfter := 0, object.OID(0)
	resumed := req.Cursor != ""
	var epoch uint64
	if resumed {
		curEpoch, class, after, err := parseCursor(req.Cursor)
		if err != nil {
			return nil, err
		}
		idx := -1
		for i, cls := range classes {
			if cls == class {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("%w: cursor class %q is not a target of this request", ErrBadRequest, class)
		}
		startIdx, startAfter = idx, after
		epoch = curEpoch
	} else if atEpoch != 0 {
		epoch = atEpoch
	} else {
		epoch = qe.Obj.CurrentEpoch()
	}
	// Validate the snapshot now so a resumed cursor behind the GC horizon
	// fails at the call, but PIN lazily at first pull: a stream that is
	// created and never iterated must not hold the horizon back forever.
	// A fresh stream reads at the epoch current at its first pull; a
	// commit reclaiming past another epoch between creation and first
	// pull surfaces as ErrSnapshotGone from the iteration, never as a
	// silently inconsistent page.
	if err := qe.Obj.CheckEpoch(epoch); err != nil {
		return nil, err
	}
	// A stream at an epoch of its own choosing leases that epoch when it
	// stops with a cursor: nothing else holds it until the cursor comes
	// back. A caller that passes the epoch holds it itself.
	own := atEpoch == 0
	fresh := own && !resumed

	st := &Stream{cursor: req.Cursor}
	st.seq = func(yield func(*object.Object, error) bool) {
		if !st.claim() {
			yield(nil, fmt.Errorf("%w: stream already consumed", ErrBadRequest))
			return
		}
		if fresh {
			epoch = qe.Obj.Pin()
		} else if err := qe.Obj.PinEpoch(epoch); err != nil {
			yield(nil, err)
			return
		}
		defer func() {
			if own && st.Cursor() != "" {
				qe.Obj.Lease(epoch, time.Now().Add(cursorLease))
			}
			qe.Obj.Unpin(epoch)
		}()
		yielded := 0
		ctx, sp := obs.StartWith(ctx, qe.Tracer, "query/stream")
		defer func() {
			qe.streamObjects.Add(int64(yielded))
			sp.Annotate("yielded", strconv.Itoa(yielded))
			sp.End()
		}()
		served := false
		for ci := startIdx; ci < len(classes); ci++ {
			after := object.OID(0)
			if ci == startIdx {
				after = startAfter
			}
			for oid, err := range qe.Obj.QueryFromAt(classes[ci], req.Pred, after, epoch) {
				if err != nil {
					yield(nil, err)
					return
				}
				if err := ctx.Err(); err != nil {
					yield(nil, err)
					return
				}
				if qe.isStaleAt(oid, epoch) && !qe.ServeStale {
					continue
				}
				o, err := qe.Obj.GetAt(oid, epoch)
				if err != nil {
					yield(nil, err)
					return
				}
				served = true
				if !yield(o, nil) {
					st.setCursor(encodeCursor(epoch, classes[ci], oid))
					return
				}
				yielded++
				if req.Limit > 0 && yielded >= req.Limit {
					st.setCursor(encodeCursor(epoch, classes[ci], oid))
					return
				}
			}
		}
		if served || resumed {
			// Exhausted: a resumed stream never falls back to derivation —
			// its first page proved retrieval serves this request.
			st.setCursor("")
			return
		}
		qe.streamFallback(ctx, classes, strategies, req, st, yield)
	}
	return st, nil
}

// PageRawAt drains one retrieval-only page of a streaming query at an
// epoch the CALLER has pinned, without loading or decoding any object:
// it walks the same candidate order as StreamAt — classes in target
// order, OIDs ascending, resuming strictly after the request cursor,
// skipping stale objects unless ServeStale — and invokes visit for each
// hit. This is the v2 wire protocol's zero-copy page handoff: the
// service layer's visit fetches each hit's raw record (object.GetRawAt:
// the stored value bytes in a re-assembled GOB3 header) and ships it as
// it is, cutting the page when its byte budget fills.
//
// visit returns (take, err): take=false cuts the page BEFORE the offered
// object (the cursor is minted at the last object taken, so the refused
// object leads the next page); a non-nil err aborts. The returned cursor
// is "" when retrieval is exhausted, and served reports whether
// retrieval produced anything at all — the caller decides about the
// fallback chain (PageRawAt itself never falls back; fallback pages are
// not resumable, and their objects ship as object.EncodeWire records).
func (qe *Executor) PageRawAt(ctx context.Context, req Request, epoch uint64, visit func(class string, oid object.OID) (bool, error)) (cursor string, served bool, err error) {
	ctx, sp := obs.Start(ctx, "query/page")
	taken := 0
	defer func() {
		qe.streamPages.Inc()
		qe.streamObjects.Add(int64(taken))
		sp.Annotate("taken", strconv.Itoa(taken))
		sp.End()
	}()
	classes, err := qe.targetClasses(req)
	if err != nil {
		return "", false, err
	}
	startIdx, startAfter := 0, object.OID(0)
	if req.Cursor != "" {
		curEpoch, class, after, err := parseCursor(req.Cursor)
		if err != nil {
			return "", false, err
		}
		if curEpoch != epoch {
			return "", false, fmt.Errorf("%w: cursor epoch %d does not match the pinned epoch %d", ErrBadRequest, curEpoch, epoch)
		}
		idx := -1
		for i, cls := range classes {
			if cls == class {
				idx = i
				break
			}
		}
		if idx < 0 {
			return "", false, fmt.Errorf("%w: cursor class %q is not a target of this request", ErrBadRequest, class)
		}
		startIdx, startAfter = idx, after
	}
	lastClass, lastOID := "", object.OID(0)
	cut := func() string {
		if taken == 0 {
			return req.Cursor // nothing shipped: resume where this page started
		}
		return encodeCursor(epoch, lastClass, lastOID)
	}
	for ci := startIdx; ci < len(classes); ci++ {
		after := object.OID(0)
		if ci == startIdx {
			after = startAfter
		}
		for oid, err := range qe.Obj.QueryFromAt(classes[ci], req.Pred, after, epoch) {
			if err != nil {
				return "", served, err
			}
			if err := ctx.Err(); err != nil {
				return "", served, err
			}
			if qe.isStaleAt(oid, epoch) && !qe.ServeStale {
				continue
			}
			take, err := visit(classes[ci], oid)
			if err != nil {
				return "", served, err
			}
			if !take {
				return cut(), served, nil
			}
			served = true
			taken++
			lastClass, lastOID = classes[ci], oid
			if req.Limit > 0 && taken >= req.Limit {
				return encodeCursor(epoch, lastClass, lastOID), served, nil
			}
		}
	}
	return "", served, nil
}

// streamFallback runs the §2.1.5 fallback chain lazily — only reached
// when the consumer drained an empty retrieval, so QueryStream itself
// never pays for planning or derivation. Derivation writes fresh objects
// at new epochs; they are loaded at their newest state.
func (qe *Executor) streamFallback(ctx context.Context, classes []string, strategies []Strategy, req Request, st *Stream, yield func(*object.Object, error) bool) {
	st.setCursor("")
	st.setFellBack()
	var lastErr error
	for _, s := range strategies {
		switch s {
		case Interpolate:
			oid, err := qe.tryInterpolate(ctx, classes, req)
			if err != nil {
				lastErr = err
				continue
			}
			o, err := qe.Obj.Get(oid)
			if err != nil {
				yield(nil, err)
				return
			}
			yield(o, nil)
			return
		case Derive:
			oids, _, _, err := qe.tryDerive(ctx, classes, req)
			if err != nil {
				lastErr = err
				continue
			}
			if req.Limit > 0 && len(oids) > req.Limit {
				oids = oids[:req.Limit]
			}
			for _, oid := range oids {
				o, err := qe.Obj.Get(oid)
				if err != nil {
					yield(nil, err)
					return
				}
				if !yield(o, nil) {
					return
				}
			}
			return
		case Retrieve:
			// Already attempted by the caller.
		}
	}
	if lastErr != nil {
		yield(nil, fmt.Errorf("%w: %w", ErrUnsatisfied, lastErr))
		return
	}
	yield(nil, ErrUnsatisfied)
}
