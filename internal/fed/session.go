package fed

// fedSession is a mutation session over the federation. Staging is
// local, split by partition key: creates land on the shard placeCreate
// picks for their class, updates and deletes follow their OID's shard
// tag. Commit then takes one of two shapes:
//
//   - One shard touched: the staged batch ships as that shard's
//     ordinary OpCommit — one round trip, one WAL fsync, exactly the
//     plain-client path. The federation adds zero commit latency to
//     workloads that respect the partitioning.
//
//   - Several shards touched: two-phase commit. Every shard prepares
//     (validate + write-set locks + durable vote under the coordinator
//     token), the decision is fsynced to the decision log — THE commit
//     point — and the decide fan-out applies it. Any prepare refusal
//     aborts everywhere; a crash after the commit point is finished by
//     replay (Open here, vote re-staging on the shards).
//
// Each shard's first-committer-wins read epoch is captured lazily by
// the first staged operation touching it.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gaea"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/query"
	"gaea/internal/wire"
)

// ErrHeuristic reports a cross-shard transaction that committed on some
// shards while another had already discarded its vote (prepare TTL
// elapsed, or a shard restart lost a non-durable prepare): the
// transaction is partially applied and no retry can reconcile it.
// Run shards with ServeOptions.PrepareDir and a prepare TTL comfortably
// above coordinator latency to keep this window shut.
var ErrHeuristic = errors.New("fed: heuristic outcome — transaction partially committed")

// ErrDecideUnacked reports a cross-shard transaction that IS durably
// committed (the decision log has it) but whose decide could not be
// delivered to every shard — typically a shard connection died inside
// the fan-out. The undelivered shards apply it when the decision is
// replayed (the next fed.Open over the same log), or answer
// idempotently if they already did.
var ErrDecideUnacked = errors.New("fed: committed; decision delivery incomplete")

type fedSession struct {
	r   *Router
	ctx context.Context

	mu       sync.Mutex
	broken   error
	done     bool
	prepared bool
	shards   map[int]*shardBatch
	// order remembers first-touch order so commits and OID responses
	// are deterministic.
	order     []int
	committed map[object.OID]object.OID
	// fixedEpoch pre-pins shard read epochs — the served 1-shard path
	// passes the upstream client's epoch through so first-committer-
	// wins semantics survive the relay.
	fixedEpoch map[int]uint64
}

// shardBatch is the staged slice of a session bound for one shard — a
// mirror of the plain remote session's staging, in downstream OID
// space.
type shardBatch struct {
	shard     int
	readEpoch uint64
	nextProv  uint64
	creates   []wire.Create
	createIdx map[uint64]int
	updates   []wire.Object
	updateIdx map[uint64]int
	deletes   []uint64
	deleteIdx map[uint64]struct{}
}

func (s *fedSession) check() error {
	if s.broken != nil {
		return s.broken
	}
	if s.done {
		return fmt.Errorf("%w: session finished", gaea.ErrClosed)
	}
	return nil
}

// batchFor returns the staging batch for a shard, capturing the shard's
// read epoch on first touch (one OpBegin round trip, skipped when the
// epoch was pre-pinned). Called with s.mu held.
func (s *fedSession) batchFor(shard int) (*shardBatch, error) {
	if shard < 0 || shard >= len(s.r.conns) {
		return nil, fmt.Errorf("%w: oid names shard %d; federation has %d", query.ErrBadRequest, shard, len(s.r.conns))
	}
	if b, ok := s.shards[shard]; ok {
		return b, nil
	}
	b := &shardBatch{
		shard:     shard,
		createIdx: make(map[uint64]int),
		updateIdx: make(map[uint64]int),
		deleteIdx: make(map[uint64]struct{}),
	}
	if e, ok := s.fixedEpoch[shard]; ok {
		b.readEpoch = e
	} else {
		resp, err := s.r.conns[shard].RoundTrip(s.ctx, &wire.Request{Op: wire.OpBegin})
		if err != nil {
			return nil, fmt.Errorf("fed: shard %d begin: %w", shard, err)
		}
		b.readEpoch = resp.Epoch
	}
	s.shards[shard] = b
	s.order = append(s.order, shard)
	return b, nil
}

// Create stages a new object on the shard owning its class and returns
// a provisional OID carrying the shard tag (Committed translates after
// Commit).
func (s *fedSession) Create(obj *object.Object, note string) (object.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return 0, err
	}
	if s.prepared {
		return 0, fmt.Errorf("%w: session is prepared; commit or roll back", gaea.ErrClosed)
	}
	b, err := s.batchFor(s.r.placeCreate(obj.Class))
	if err != nil {
		return 0, err
	}
	w, err := wire.FromObject(obj)
	if err != nil {
		return 0, err
	}
	b.nextProv++
	prov := wire.ProvisionalBit | b.nextProv
	w.OID = prov
	b.createIdx[prov] = len(b.creates)
	b.creates = append(b.creates, wire.Create{Prov: prov, Obj: w, Note: note})
	// The upstream provisional OID is the downstream one with the shard
	// tag stamped in — no translation table needed.
	return object.OID(tagOID(b.shard, prov)), nil
}

// Update stages a replacement; the OID's shard tag (real or
// provisional) is the route.
func (s *fedSession) Update(obj *object.Object) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return err
	}
	if s.prepared {
		return fmt.Errorf("%w: session is prepared; commit or roll back", gaea.ErrClosed)
	}
	shard, down := splitOID(uint64(obj.OID))
	b, err := s.batchFor(shard)
	if err != nil {
		return err
	}
	if _, staged := b.deleteIdx[down]; staged {
		return fmt.Errorf("%w: object %d is staged for deletion in this session", gaea.ErrConflict, obj.OID)
	}
	w, err := wire.FromObject(obj)
	if err != nil {
		return err
	}
	w.OID = down
	if i, staged := b.createIdx[down]; staged {
		note := b.creates[i].Note
		b.creates[i] = wire.Create{Prov: down, Obj: w, Note: note}
		return nil
	}
	if i, staged := b.updateIdx[down]; staged {
		b.updates[i] = w
		return nil
	}
	b.updateIdx[down] = len(b.updates)
	b.updates = append(b.updates, w)
	return nil
}

// Delete stages a removal on the OID's shard; deleting a provisional
// OID discards its staged create.
func (s *fedSession) Delete(oid object.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return err
	}
	if s.prepared {
		return fmt.Errorf("%w: session is prepared; commit or roll back", gaea.ErrClosed)
	}
	shard, down := splitOID(uint64(oid))
	b, err := s.batchFor(shard)
	if err != nil {
		return err
	}
	if i, staged := b.createIdx[down]; staged {
		b.creates = append(b.creates[:i], b.creates[i+1:]...)
		delete(b.createIdx, down)
		for p, j := range b.createIdx {
			if j > i {
				b.createIdx[p] = j - 1
			}
		}
		return nil
	}
	if i, staged := b.updateIdx[down]; staged {
		b.updates = append(b.updates[:i], b.updates[i+1:]...)
		delete(b.updateIdx, down)
		for p, j := range b.updateIdx {
			if j > i {
				b.updateIdx[p] = j - 1
			}
		}
	}
	if _, staged := b.deleteIdx[down]; staged {
		return nil
	}
	b.deleteIdx[down] = struct{}{}
	b.deletes = append(b.deletes, down)
	return nil
}

func (b *shardBatch) empty() bool {
	return len(b.creates)+len(b.updates)+len(b.deletes) == 0
}

func (b *shardBatch) batchReq() *wire.BatchReq {
	return &wire.BatchReq{
		Creates:   b.creates,
		Updates:   b.updates,
		Deletes:   b.deletes,
		ReadEpoch: b.readEpoch,
	}
}

// Commit applies the whole staged batch atomically across however many
// shards it touches.
func (s *fedSession) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return err
	}
	s.done = true
	if err := s.ctx.Err(); err != nil {
		return err
	}
	var touched []*shardBatch
	for _, shard := range s.order {
		if b := s.shards[shard]; !b.empty() {
			touched = append(touched, b)
		}
	}
	if len(touched) == 0 {
		return nil
	}
	s.r.commits.Inc()
	ctx, sp := obs.Start(s.r.traced(s.ctx), "fed/commit")
	defer sp.End()
	sp.Annotate("shards", fmt.Sprint(len(touched)))
	if len(touched) == 1 {
		return s.commitSingle(ctx, sp, touched[0])
	}
	s.r.twoPhase.Inc()
	return s.commitTwoPhase(ctx, sp, touched)
}

// commitSingle is the fast path: the one touched shard commits in its
// ordinary single-round-trip path, 2PC machinery untouched.
func (s *fedSession) commitSingle(ctx context.Context, sp *obs.Span, b *shardBatch) error {
	resp, err := s.r.conns[b.shard].RoundTrip(ctx, &wire.Request{Op: wire.OpCommit, Batch: b.batchReq()})
	if err != nil {
		sp.Annotate("error", err.Error())
		return err
	}
	return s.recordCommitted(b, resp.OIDs)
}

// recordCommitted maps one shard's answered real OIDs back onto the
// session's tagged provisional OIDs. Called with s.mu held.
func (s *fedSession) recordCommitted(b *shardBatch, oids []uint64) error {
	if len(oids) != len(b.creates) {
		return fmt.Errorf("fed: shard %d answered %d OIDs for %d creates", b.shard, len(oids), len(b.creates))
	}
	if s.committed == nil {
		s.committed = make(map[object.OID]object.OID)
	}
	for i := range b.creates {
		prov := object.OID(tagOID(b.shard, b.creates[i].Prov))
		s.committed[prov] = object.OID(tagOID(b.shard, oids[i]))
	}
	return nil
}

// commitTwoPhase runs the full protocol over the touched shards.
func (s *fedSession) commitTwoPhase(ctx context.Context, sp *obs.Span, touched []*shardBatch) error {
	token, err := s.r.log.mint()
	if err != nil {
		sp.Annotate("error", err.Error())
		return err
	}
	sp.Annotate("token", fmt.Sprint(token))

	// Phase one: every shard validates, locks, and makes its vote
	// durable. Any refusal — or any unreachable shard — aborts the
	// whole transaction before anything is decided.
	prepErrs := make([]error, len(touched))
	var wg sync.WaitGroup
	for i, b := range touched {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.r.conns[b.shard].RoundTrip(ctx,
				&wire.Request{Op: wire.OpPrepare, Lease: token, Batch: b.batchReq()})
			prepErrs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range prepErrs {
		if err != nil {
			s.decideFanout(ctx, touched, token, 0, nil)
			sp.Annotate("error", err.Error())
			return fmt.Errorf("fed: shard %d refused prepare: %w", touched[i].shard, err)
		}
	}

	// The commit point: the decision outlives any crash from here on.
	shards := make([]int, len(touched))
	for i, b := range touched {
		shards[i] = b.shard
	}
	if err := s.r.log.commit(token, shards); err != nil {
		// Can't make the decision durable — abort while every shard is
		// still only prepared.
		s.decideFanout(ctx, touched, token, 0, nil)
		sp.Annotate("error", err.Error())
		return err
	}

	// Phase two: deliver the decision. The authoritative OIDs come from
	// the decide responses (a shard that re-staged its vote after a
	// restart reserved fresh ones).
	oidsByShard := make([][]uint64, len(touched))
	decErrs := s.decideFanout(ctx, touched, token, 1, oidsByShard)
	var firstErr error
	for i, err := range decErrs {
		b := touched[i]
		switch {
		case err == nil:
			s.r.log.ack(token, b.shard)
			s.r.acks.Inc()
			if rerr := s.recordCommitted(b, oidsByShard[i]); rerr != nil && firstErr == nil {
				firstErr = rerr
			}
		case errors.Is(err, gaea.ErrNotFound):
			// The shard lost its vote between our prepare and decide:
			// everyone else committed, this shard presumed abort. No
			// retry can reconcile it — record and surface.
			s.r.log.heuristic(token, b.shard)
			s.r.events.Emit("2pc_heuristic", obs.SevWarn,
				"shard lost its vote after the commit decision; transaction partially applied",
				map[string]string{"token": fmt.Sprint(token), "shard": fmt.Sprint(b.shard)})
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: transaction %d, shard %d: %v", ErrHeuristic, token, b.shard, err)
			}
		default:
			// Unreachable shard: the decision stays pending in the log
			// and is re-delivered by the next Open's replay.
			s.r.unacked.Inc()
			s.r.events.Emit("2pc_unacked", obs.SevWarn,
				"decision delivery incomplete; replay finishes it",
				map[string]string{"token": fmt.Sprint(token), "shard": fmt.Sprint(b.shard)})
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: transaction %d, shard %d: %v", ErrDecideUnacked, token, b.shard, err)
			}
		}
	}
	if firstErr != nil {
		sp.Annotate("error", firstErr.Error())
	}
	return firstErr
}

// decideFanout delivers one decision (1 = commit, 0 = abort) to every
// touched shard concurrently, collecting per-shard errors and — for
// commits — the answered real OIDs.
func (s *fedSession) decideFanout(ctx context.Context, touched []*shardBatch, token uint64, decision uint64, oids [][]uint64) []error {
	errs := make([]error, len(touched))
	var wg sync.WaitGroup
	for i, b := range touched {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.r.conns[b.shard].RoundTrip(ctx,
				&wire.Request{Op: wire.OpDecide, Lease: token, Epoch: decision})
			errs[i] = err
			if err == nil && oids != nil {
				oids[i] = resp.OIDs
			}
		}()
	}
	wg.Wait()
	return errs
}

// Rollback discards the staged work. Nothing was sent downstream
// except epoch fetches, so there is nothing to undo remotely.
func (s *fedSession) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
	return nil
}

// Committed translates a provisional OID from Create into the stored,
// shard-tagged OID after a successful Commit.
func (s *fedSession) Committed(oid object.OID) (object.OID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	real, ok := s.committed[oid]
	return real, ok
}
