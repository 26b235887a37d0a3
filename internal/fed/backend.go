package fed

// Backend adapts a Router onto internal/server's Backend interface, so
// the federation can itself be SERVED: `gaea fed` runs an ordinary
// wire server whose "kernel" is the router, and unmodified clients talk
// to the grid exactly as they would to one kernel. OIDs they see carry
// shard tags (invisible at one shard, where the tag is the identity),
// cursors they hold resume across the merge, and their commits ride the
// single-shard fast path or 2PC as their batch demands.
//
// Epoch bookkeeping is the one impedance mismatch: the server's lease
// machinery pins ONE epoch per snapshot or cursor, but a federation of
// N has N epochs. The adapter answers Pin with a SYNTHETIC pin id
// (bit 62 set — far above any real commit epoch) naming a router-held
// per-shard snapshot set; real (shard-local) epochs inside resumed
// cursors pass through untouched, because the shard's own cursor
// leases — taken by each downstream stream — are the pins that matter.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gaea"
	"gaea/client"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/query"
	"gaea/internal/server"
	"gaea/internal/wire"
)

// pinBit marks a synthetic pin id: a handle to a router-held snapshot
// set, disjoint from every real commit epoch a kernel could reach.
const pinBit uint64 = 1 << 62

type fedPin struct {
	snap  *fedSnapshot // nil when the fan-out failed
	err   error
	refs  int
	grace *time.Timer // pending zombie release, nil while referenced
}

// pinGrace holds a fully-unreferenced synthetic pin before its shard
// snapshots are released. It bridges the window between the server
// unpinning an exhausted stream and the stopping client's OpLease
// re-pin of the page epoch: a real kernel bridges it with epoch
// persistence (any recent epoch can be re-pinned), but a synthetic pin
// is pure state — once the snapshot set is gone, the exact per-shard
// epochs are unrecoverable. Matches the default snapshot lease TTL.
const pinGrace = 30 * time.Second

type fedBackend struct {
	r      *Router
	pinSeq atomic.Uint64

	mu   sync.Mutex
	pins map[uint64]*fedPin
}

// NewBackend wraps a Router for internal/server, the `gaea fed` serving
// path.
func NewBackend(r *Router) server.Backend {
	return &fedBackend{r: r, pins: make(map[uint64]*fedPin)}
}

// Begin opens a federated session. The upstream user is recorded by the
// downstream connections' own identity (Options.Client.User); a one-
// shard federation passes the client's read epoch straight through, so
// first-committer-wins means exactly what it does against a plain
// kernel.
func (b *fedBackend) Begin(ctx context.Context, readEpoch uint64, user string) server.Session {
	s := &fedSession{r: b.r, ctx: ctx, shards: make(map[int]*shardBatch)}
	if len(b.r.conns) == 1 && readEpoch != 0 {
		s.fixedEpoch = map[int]uint64{0: readEpoch}
	}
	if err := b.r.checkOpen(); err != nil {
		s.broken = err
	}
	return s
}

// Epoch reports a commit epoch for a remote Begin: the real one when
// the federation has a single shard, 0 ("current at commit time")
// otherwise — a grid of N has N epochs and each shard's is captured
// when the session first touches it.
func (b *fedBackend) Epoch() uint64 {
	if len(b.r.conns) != 1 {
		return 0
	}
	//lint:gaea-allow ctxflow Epoch has no context by interface contract; the dial timeouts bound it
	resp, err := b.r.conns[0].RoundTrip(context.Background(), &wire.Request{Op: wire.OpBegin})
	if err != nil {
		return 0
	}
	return resp.Epoch
}

func (b *fedBackend) Query(ctx context.Context, req query.Request) (*query.Result, error) {
	return b.r.Query(ctx, req)
}

// QueryAt answers at a pinned snapshot set (the remote snapshot read
// path).
func (b *fedBackend) QueryAt(ctx context.Context, req query.Request, epoch uint64) (*query.Result, error) {
	pin, err := b.lookupPin(epoch)
	if err != nil {
		return nil, err
	}
	return pin.snap.Query(ctx, req)
}

func (b *fedBackend) lookupPin(epoch uint64) (*fedPin, error) {
	b.mu.Lock()
	pin, ok := b.pins[epoch]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: federation pin %d expired", gaea.ErrSnapshotGone, epoch)
	}
	if pin.err != nil {
		return nil, pin.err
	}
	return pin, nil
}

// shipPos remembers the last object a page shipped from one shard, so a
// byte-budget cut can re-mint that shard's cursor to re-include the
// object the cut pushed off the page.
type shipPos struct {
	class string
	down  uint64
}

// pageStream resolves one page request into a federated stream and the
// effective request it runs under (the cursor may be rewritten when a
// synthetic-epoch cursor is re-rooted onto its pinned snapshot set).
func (b *fedBackend) pageStream(ctx context.Context, req query.Request, epoch uint64) (client.Stream, query.Request, error) {
	ctx = b.r.traced(ctx)
	if req.Cursor == "" {
		// A fresh stream at a synthetic pin streams the pinned snapshot
		// set; without one (not a path the server takes) it streams
		// live.
		if epoch&pinBit != 0 {
			pin, err := b.lookupPin(epoch)
			if err != nil {
				return nil, req, err
			}
			st, err := newFedStream(b.r, ctx, req, func(ctx context.Context, shard int, req query.Request) (client.Stream, error) {
				return pin.snap.snaps[shard].QueryStream(ctx, req)
			})
			return st, req, err
		}
		st, err := b.r.QueryStream(ctx, req)
		return st, req, err
	}
	if !wire.IsVectorCursor(req.Cursor) {
		cepoch, class, after, err := query.DecodeCursor(req.Cursor)
		if err != nil {
			return nil, req, err
		}
		if cepoch&pinBit != 0 {
			// A client that stopped mid-page synthesised a plain cursor
			// from the page header's epoch — which, served by this
			// adapter, is a synthetic pin id. Re-root it onto the pinned
			// snapshot set: the one owning shard resumes at its pinned
			// epoch, exactly where the synthesis pointed.
			pin, err := b.lookupPin(cepoch)
			if err != nil {
				return nil, req, err
			}
			shard, down := splitOID(uint64(after))
			if shard >= len(pin.snap.snaps) {
				return nil, req, fmt.Errorf("%w: cursor names shard %d; federation has %d",
					query.ErrBadRequest, shard, len(pin.snap.snaps))
			}
			if own := b.r.owners(class); len(own) > 1 {
				return nil, req, fmt.Errorf("%w: a mid-page cursor cannot resume a %d-shard merge; resume from a page boundary (vector) cursor",
					query.ErrBadRequest, len(own))
			}
			req.Cursor = query.EncodeCursor(pin.snap.snaps[shard].Epoch(), class, object.OID(tagOID(shard, down)))
			st, err := newFedStream(b.r, ctx, req, func(ctx context.Context, shard int, req query.Request) (client.Stream, error) {
				return pin.snap.snaps[shard].QueryStream(ctx, req)
			})
			return st, req, err
		}
	}
	// Vector cursors and plain cursors with real shard epochs resume
	// live: every component's downstream cursor re-pins its own epoch
	// on its own shard.
	st, err := newFedStream(b.r, ctx, req, func(ctx context.Context, shard int, req query.Request) (client.Stream, error) {
		return b.r.conns[shard].QueryStream(ctx, req)
	})
	return st, req, err
}

// StreamPage drains one page of the federated merge under the byte
// budget, exactly like the kernel adapter: cut before the object that
// would overflow, cursor re-minted so the cut object leads the next
// page. The federation cannot pass a shard's records on as they arrive
// (their OIDs lack the shard tag), so each object is re-encoded after
// tagging; blob payloads ride inline in the record, as EncodeWire leaves
// them. retrieveOnly is implicit and fellBack always false: every
// downstream path here is a snapshot or cursor stream, and downstream
// kernels already ran their own fallback chains — a shard stream that
// fell back surfaces as a non-resumable (empty) cursor, and a cut there
// is an error instead.
func (b *fedBackend) StreamPage(ctx context.Context, req query.Request, epoch uint64, retrieveOnly bool, maxBytes int) ([]wire.RawObject, string, bool, error) {
	st, ereq, err := b.pageStream(ctx, req, epoch)
	if err != nil {
		return nil, "", false, err
	}
	pg := server.NewPage(ereq.Limit, maxBytes)
	prev := make(map[int]shipPos)
	var cut *object.Object
	for o, err := range st.All() {
		if err != nil {
			return nil, "", false, err
		}
		rec, err := object.EncodeWire(o)
		if err != nil {
			return nil, "", false, err
		}
		take, err := pg.Take(o.OID, wire.RawObject{Rec: rec})
		if err != nil {
			return nil, "", false, err
		}
		if !take {
			cut = o
			break
		}
		shard, down := splitOID(uint64(o.OID))
		prev[shard] = shipPos{class: o.Class, down: down}
	}
	cursor := st.Cursor()
	if cut != nil {
		cursor, err = patchCutCursor(cursor, ereq.Cursor, cut, prev, pg.Budget)
		if err != nil {
			return nil, "", false, err
		}
	}
	return pg.Raws, cursor, false, nil
}

// patchCutCursor rewinds the page cursor after a cut at the page's byte
// budget: the merged stream already moved past the cut object, so the
// cut shard's component is re-minted at the last object the page
// actually shipped from it (or back to its starting position when the
// page shipped none).
func patchCutCursor(assembled, inCursor string, cut *object.Object, prev map[int]shipPos, budget int) (string, error) {
	cutShard, _ := splitOID(uint64(cut.OID))
	if assembled == "" {
		return "", fmt.Errorf("%w: page byte budget %d exceeded on a non-resumable stream; raise the frame limit or narrow the query",
			query.ErrBadRequest, budget)
	}
	if wire.IsVectorCursor(assembled) {
		entries, err := wire.DecodeVectorCursor(assembled)
		if err != nil {
			return "", err
		}
		for i := range entries {
			if entries[i].Shard != cutShard {
				continue
			}
			if p, ok := prev[cutShard]; ok {
				entries[i].Cursor = query.EncodeCursor(entries[i].Epoch, p.class, object.OID(p.down))
			} else {
				init := initCursorFor(inCursor, cutShard)
				entries[i].Cursor = init
				entries[i].Epoch = 0
				if init != "" {
					if e, eerr := query.CursorEpoch(init); eerr == nil {
						entries[i].Epoch = e
					}
				}
			}
			entries[i].Done = false
			return wire.EncodeVectorCursor(entries), nil
		}
		return "", fmt.Errorf("%w: cut shard %d missing from page cursor", query.ErrBadRequest, cutShard)
	}
	epoch, _, _, err := query.DecodeCursor(assembled)
	if err != nil {
		return "", err
	}
	p, ok := prev[cutShard]
	if !ok {
		// The single component's first object overflowed the page it
		// shares with nothing: resume exactly where it started.
		return inCursor, nil
	}
	return query.EncodeCursor(epoch, p.class, object.OID(tagOID(cutShard, p.down))), nil
}

// initCursorFor recovers the position one shard's component started
// this page from, out of the page's input cursor.
func initCursorFor(inCursor string, shard int) string {
	switch {
	case inCursor == "":
		return ""
	case wire.IsVectorCursor(inCursor):
		entries, err := wire.DecodeVectorCursor(inCursor)
		if err != nil {
			return ""
		}
		for _, e := range entries {
			if e.Shard == shard && !e.Done {
				return e.Cursor
			}
		}
		return ""
	default:
		epoch, class, after, err := query.DecodeCursor(inCursor)
		if err != nil {
			return ""
		}
		if s, down := splitOID(uint64(after)); s == shard {
			return query.EncodeCursor(epoch, class, object.OID(down))
		}
		return ""
	}
}

// GetRawAt routes a snapshot point-read through the pinned snapshot set
// and re-encodes it to record bytes (the tagged OID must be in the
// record).
func (b *fedBackend) GetRawAt(oid object.OID, epoch uint64) (wire.RawObject, error) {
	pin, err := b.lookupPin(epoch)
	if err != nil {
		return wire.RawObject{}, err
	}
	o, err := pin.snap.Get(oid)
	if err != nil {
		return wire.RawObject{}, err
	}
	rec, err := object.EncodeWire(o)
	if err != nil {
		return wire.RawObject{}, err
	}
	return wire.RawObject{Rec: rec}, nil
}

// Pin opens a snapshot lease on every shard and hands back a synthetic
// pin id naming the set. Pin cannot fail by contract, so a failed
// fan-out parks the error under the id for the first use to surface.
func (b *fedBackend) Pin() uint64 {
	id := pinBit | b.pinSeq.Add(1)
	pin := &fedPin{refs: 1}
	//lint:gaea-allow ctxflow Pin has no context by interface contract; the dial timeouts bound it
	sn, err := b.r.Snapshot(context.Background())
	if err != nil {
		pin.err = err
	} else {
		pin.snap = sn.(*fedSnapshot)
	}
	b.mu.Lock()
	b.pins[id] = pin
	b.mu.Unlock()
	return id
}

// PinEpoch re-pins: a synthetic id gains a reference; a real (shard-
// local) epoch is answered leniently with nil, because the downstream
// cursor leases taken by each resumed component are the pins that
// actually protect it.
func (b *fedBackend) PinEpoch(epoch uint64) error {
	if epoch&pinBit == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	pin, ok := b.pins[epoch]
	if !ok {
		return fmt.Errorf("%w: federation pin %d expired", gaea.ErrSnapshotGone, epoch)
	}
	if pin.err != nil {
		return pin.err
	}
	if pin.grace != nil {
		pin.grace.Stop()
		pin.grace = nil
	}
	pin.refs++
	return nil
}

// Unpin releases one reference on a synthetic pin. The last reference
// does not drop the shard snapshot set immediately: the pin lingers as
// a zombie for pinGrace so a client's stop-synthesised cursor can still
// re-pin it (see pinGrace), and only then releases.
func (b *fedBackend) Unpin(epoch uint64) {
	if epoch&pinBit == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	pin, ok := b.pins[epoch]
	if !ok {
		return
	}
	pin.refs--
	if pin.refs > 0 || pin.grace != nil {
		return
	}
	pin.grace = time.AfterFunc(pinGrace, func() {
		b.mu.Lock()
		cur, ok := b.pins[epoch]
		if !ok || cur != pin || cur.refs > 0 || cur.grace == nil {
			b.mu.Unlock()
			return
		}
		delete(b.pins, epoch)
		b.mu.Unlock()
		if pin.snap != nil {
			pin.snap.Release()
		}
	})
}

// CursorEpoch reports the epoch the server should re-pin for a cursor:
// for a vector cursor, the maximum component epoch (informational — the
// components re-pin their own); for a plain cursor, whatever it carries
// (possibly a synthetic pin id from this adapter's own pages).
func (b *fedBackend) CursorEpoch(cursor string) (uint64, error) {
	if wire.IsVectorCursor(cursor) {
		entries, err := wire.DecodeVectorCursor(cursor)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", query.ErrBadRequest, err)
		}
		var maxEpoch uint64
		for _, e := range entries {
			if !e.Done && e.Epoch > maxEpoch {
				maxEpoch = e.Epoch
			}
		}
		return maxEpoch, nil
	}
	return query.CursorEpoch(cursor)
}

func (b *fedBackend) Stale() []object.OID { return b.r.Stale() }

func (b *fedBackend) RefreshStale(ctx context.Context) (int, error) {
	return b.r.RefreshStale(ctx)
}

func (b *fedBackend) Explain(oid object.OID) string { return b.r.Explain(oid) }

func (b *fedBackend) ExplainQuery(ctx context.Context, req query.Request) (string, error) {
	return b.r.ExplainQuery(ctx, req)
}

func (b *fedBackend) Stats() string {
	st, err := b.r.Stats()
	if err != nil {
		return fmt.Sprintf("federation stats unavailable: %v\n", err)
	}
	return st
}

// The serving layer's counters land in the router registry and its
// request spans in the router tracer, under the upstream client's trace
// ID when one came over the wire — the middle level of the three-level
// client → router → shard trace. A served federation pushes the
// router's own event stream — shard health transitions and coordinator
// 2PC outcomes — through SubscribeStats like any kernel.
func (b *fedBackend) Metrics() *obs.Registry { return b.r.reg }
func (b *fedBackend) Tracer() *obs.Tracer    { return b.r.tracer }
func (b *fedBackend) Events() *obs.EventLog  { return b.r.events }
func (b *fedBackend) ObsJSON() []byte        { return b.r.ObsJSON() }
