package query

// Streaming retrieval: the cursor-style counterpart of Run. Instead of
// materialising every matching object before returning, a Stream yields
// objects one at a time as the consumer pulls — the storage layer
// verifies extents lazily, objects load on demand, and the §2.1.5
// fallback chain (Fallback) only runs if the consumer actually drains an
// empty retrieval. Request.Limit caps a page and Request.Cursor resumes
// the next one, so arbitrarily large extents are served in bounded
// memory.
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
	"slices"
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

// EncodeCursor builds a resume token for the object after `oid` of
// `class` at a snapshot epoch — the token Stream iteration mints when a
// page fills. Exported for the service layer: a remote client that stops
// mid-page resumes from the last object it actually consumed.
func EncodeCursor(epoch uint64, class string, oid object.OID) string {
	return cursorVersion + "|" + strconv.FormatUint(epoch, 10) + "|" + class + "|" +
		strconv.FormatUint(uint64(oid), 10)
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

// resume resolves a cursor against the target classes: where the walk
// resumes, and the cursor's snapshot epoch (0 without a cursor).
func resume(cursor string, classes []string) (position, uint64, error) {
	if cursor == "" {
		return position{}, 0, nil
	}
	epoch, class, after, err := parseCursor(cursor)
	if err != nil {
		return position{}, 0, err
	}
	idx := slices.Index(classes, class)
	if idx < 0 {
		return position{}, 0, fmt.Errorf("%w: cursor class %q is not a target of this request", ErrBadRequest, class)
	}
	return position{class: idx, after: after}, epoch, nil
}

// StreamAt answers a request incrementally against a snapshot: atEpoch,
// which a Kernel.Snapshot stream's caller holds pinned, or with atEpoch 0
// the commit epoch current at the first pull, pinned by iteration. A
// cursor in the request overrides both — resuming a page against another
// snapshot than it was cut from would break the no-skip/no-phantom
// contract. Validation (classes, cursor, pinnability) happens up front;
// retrieval and fallback wait for iteration, and the pin is released
// when iteration stops.
func (qe *Executor) StreamAt(ctx context.Context, req Request, atEpoch uint64) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	classes, err := qe.targetClasses(req)
	if err != nil {
		return nil, err
	}
	pos, epoch, err := resume(req.Cursor, classes)
	if err != nil {
		return nil, err
	}
	resumed := req.Cursor != ""
	if !resumed {
		epoch = atEpoch
		if epoch == 0 {
			epoch = qe.Obj.CurrentEpoch()
		}
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
		stopped := false
		err := qe.walk(ctx, classes, req.Pred, pos, epoch, false, func(class string, oid object.OID, _ bool) (bool, error) {
			o, err := qe.Obj.GetAt(oid, epoch)
			if err != nil {
				return false, err
			}
			if yield(o, nil) {
				if yielded++; yielded != req.Limit { // a Limit ≤ 0 never matches
					return true, nil
				}
			}
			stopped = true // the consumer broke out, or the page is full
			st.setCursor(EncodeCursor(epoch, class, oid))
			return false, nil
		})
		switch {
		case err != nil:
			yield(nil, err)
			return
		case stopped:
			return
		}
		st.setCursor("")
		if yielded > 0 || resumed {
			// Exhausted: a resumed stream never falls back to derivation —
			// its first page proved retrieval serves this request.
			return
		}
		res, err := qe.Fallback(ctx, req)
		if err != nil {
			yield(nil, err)
			return
		}
		for _, oid := range res.OIDs {
			o, err := qe.Obj.Get(oid)
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(o, nil) {
				return
			}
		}
	}
	return st, nil
}

// PageRawAt drains one page of StreamAt's walk at an epoch the CALLER has
// pinned, from the request cursor, without loading or decoding any
// object: the v2 wire protocol's zero-copy page handoff, whose visit
// ships each object's raw record (object.GetRawAt) and cuts the page
// when its byte budget fills.
//
// visit returns (take, err): take=false cuts the page BEFORE the offered
// object (the cursor is minted at the last object taken, so the refused
// object leads the next page); a non-nil err aborts. The returned cursor
// is "" when retrieval is exhausted, and served reports whether this
// page took anything. PageRawAt never falls back: a caller whose fresh
// page served nothing runs Fallback itself.
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
	pos, curEpoch, err := resume(req.Cursor, classes)
	if err != nil {
		return "", false, err
	}
	if req.Cursor != "" && curEpoch != epoch {
		return "", false, fmt.Errorf("%w: cursor epoch %d does not match the pinned epoch %d", ErrBadRequest, curEpoch, epoch)
	}
	lastClass, lastOID, limit := "", object.OID(0), req.Limit
	full := false
	err = qe.walk(ctx, classes, req.Pred, pos, epoch, false, func(class string, oid object.OID, _ bool) (bool, error) {
		take, err := visit(class, oid)
		if err != nil || !take {
			full = err == nil
			return false, err
		}
		taken++
		lastClass, lastOID = class, oid
		full = taken == limit // a limit ≤ 0 never matches
		return !full, nil
	})
	switch {
	case err != nil || !full: // failed, or retrieval is exhausted
		return "", taken > 0, err
	case taken == 0:
		return req.Cursor, false, nil // nothing shipped: resume where this page started
	}
	return EncodeCursor(epoch, lastClass, lastOID), true, nil
}
