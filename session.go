package gaea

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/task"
)

// Session is a mutation scope: Create, Update, and Delete stage work in
// memory, and Commit applies the whole set as ONE atomic WAL batch with
// ONE derivation-graph invalidation sweep under a single stale epoch.
// Batching amortises the two per-op costs of the single-call API — the
// log fsync and the transitive invalidation walk — so N updates to
// objects sharing dependents cost one sweep, not N. Rollback discards
// the staged work (nothing durable happens before Commit).
//
// Staging validates eagerly: Create and Update check the class schema
// immediately, so bad objects fail at the call, not at Commit. Created
// objects receive their final OID at Create time (reserved in memory,
// durable with the commit), so later staged ops and post-commit code can
// refer to them. Objects handed to Create/Update must not be mutated
// until the session finishes. Creates are staged in the shape the object
// store's batch takes them — one list, cut into runs of one class and
// note — so Commit hands that list over as it is and folds the load
// tasks' OIDs from it.
//
// A Session is safe for concurrent use, single-shot (one Commit or
// Rollback), and snapshot-isolated against other writers with
// first-committer-wins validation: Begin captures the commit epoch of
// the store, and Commit fails atomically with ErrConflict if any object
// this session staged an update or delete for was updated or deleted by
// a commit AFTER that epoch — the session would otherwise overwrite
// state it never saw. Creates never conflict (OIDs are unique).
type Session struct {
	k   *Kernel
	ctx context.Context
	// readEpoch is the MVCC epoch captured at Begin: the state this
	// session's staged mutations are based on.
	readEpoch uint64
	// user is recorded on the load tasks this session stages (the
	// kernel's default, or the remote connection's user when the session
	// replays a wire batch).
	user string

	mu   sync.Mutex
	done bool
	// creates is the staged creates in the shape ApplyBatch takes them,
	// in ascending OID order: the store reserves OIDs from one monotonic
	// sequence, so each Create's is above the last one's. runs cut it
	// into runs of one class and note, in order.
	creates   []*object.Object
	runs      []createRun
	updates   []*object.Object
	updateIdx map[object.OID]int
	deletes   []object.OID
	deleteIdx map[object.OID]int
	// prepToken is non-zero once Prepare locked this session's write set
	// in the store; Commit completes under it, Rollback releases it.
	prepToken uint64
}

// prepareTokens mints store-level lock tokens for prepared sessions
// (process-unique; a token never outlives the in-memory locks it names).
var prepareTokens atomic.Uint64

// createRun is n consecutive creates of one class with one note, with
// the schema they were validated against.
type createRun struct {
	class object.Class
	note  string
	n     int
}

// createOf returns the index in creates of the staged create of oid.
func (s *Session) createOf(oid object.OID) (int, bool) {
	return slices.BinarySearchFunc(s.creates, oid, func(c *object.Object, oid object.OID) int {
		return cmp.Compare(c.OID, oid)
	})
}

// Begin opens a mutation session. The context bounds Commit (staging
// itself never blocks); cancelling it before Commit aborts the commit.
func (k *Kernel) Begin(ctx context.Context) *Session {
	return k.beginAt(ctx, k.Objects.CurrentEpoch(), k.user)
}

// beginAt opens a session validating against a specific read epoch and
// recording tasks under a specific user — the service layer uses it to
// give a REMOTE session the epoch its client captured at Begin (so
// first-committer-wins semantics match the embedded API even though the
// batch is replayed later) and the connection's user (so lineage
// records who actually loaded the data).
func (k *Kernel) beginAt(ctx context.Context, readEpoch uint64, user string) *Session {
	if user == "" {
		user = k.user
	}
	return &Session{
		k:         k,
		ctx:       ctx,
		readEpoch: readEpoch,
		user:      user,
		updateIdx: make(map[object.OID]int),
		deleteIdx: make(map[object.OID]int),
	}
}

// ReadEpoch returns the commit epoch this session's staged mutations are
// validated against (captured at Begin).
func (s *Session) ReadEpoch() uint64 { return s.readEpoch }

func (s *Session) check() error {
	if s.done {
		return fmt.Errorf("%w: session finished", ErrClosed)
	}
	return s.k.checkOpen()
}

// checkStaging additionally refuses staging after Prepare: the locked
// write set is the one that was voted on, and growing it would commit
// work no participant validated.
func (s *Session) checkStaging() error {
	if s.prepToken != 0 {
		return fmt.Errorf("%w: session is prepared; commit or roll back", ErrClosed)
	}
	return s.check()
}

// Create stages a new object (base data) and returns its reserved OID.
// Commit records its provenance in a load task shared by every create of
// the session with the same class and note — even an empty note records
// the load, so the object is never invisible to lineage. The object
// becomes retrievable at Commit.
//
// A create is staged as ApplyBatch takes it: the object is appended to
// the session's one list of creates, and its OID is one atomic add on
// the store's sequence. A run of creates of one class with one note is
// validated against the class schema looked up at the run's first.
func (s *Session) Create(obj *object.Object, note string) (object.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkStaging(); err != nil {
		return 0, classify(err)
	}
	n := len(s.runs)
	same := n > 0 && s.runs[n-1].class.Name() == obj.Class && s.runs[n-1].note == note
	var class object.Class
	if same {
		class = s.runs[n-1].class
	} else {
		var err error
		if class, err = s.k.Objects.ClassOf(obj.Class); err != nil {
			return 0, classify(err)
		}
	}
	oid, err := s.k.Objects.ReserveIn(class, obj)
	if err != nil {
		return 0, classify(err)
	}
	if !same {
		s.runs = append(s.runs, createRun{class: class, note: note})
	}
	s.runs[len(s.runs)-1].n++
	if len(s.creates) == cap(s.creates) {
		// Double the list: past 256 entries append grows it by less, so a
		// load session's list of thousands would be copied more often.
		s.creates = append(make([]*object.Object, 0, max(8, 2*len(s.creates))), s.creates...)
	}
	s.creates = append(s.creates, obj)
	return oid, nil
}

// Update stages an in-place replacement of an existing object (same OID,
// same class). Updating an object created in this session replaces its
// staged state; re-updating a staged update replaces the earlier one
// (last write wins within the session).
func (s *Session) Update(obj *object.Object) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkStaging(); err != nil {
		return classify(err)
	}
	if _, staged := s.deleteIdx[obj.OID]; staged {
		return fmt.Errorf("%w: object %d is staged for deletion in this session", ErrConflict, obj.OID)
	}
	if i, staged := s.createOf(obj.OID); staged {
		// Validate like a fresh create of the same class, then swap the
		// staged state.
		if obj.Class != s.creates[i].Class {
			return classify(fmt.Errorf("%w: object %d is of class %s, not %s",
				object.ErrBadAttr, obj.OID, s.creates[i].Class, obj.Class))
		}
		if err := s.k.Objects.ValidateNew(obj); err != nil {
			return classify(err)
		}
		s.creates[i] = obj
		return nil
	}
	if err := s.k.Objects.CheckUpdate(obj); err != nil {
		return classify(err)
	}
	if i, staged := s.updateIdx[obj.OID]; staged {
		s.updates[i] = obj
		return nil
	}
	s.updateIdx[obj.OID] = len(s.updates)
	s.updates = append(s.updates, obj)
	return nil
}

// Delete stages an object removal. Deleting an object created in this
// session simply discards the staged create.
func (s *Session) Delete(oid object.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkStaging(); err != nil {
		return classify(err)
	}
	if i, staged := s.createOf(oid); staged {
		s.creates = slices.Delete(s.creates, i, i+1)
		r := 0 // the run of create i
		for ; i >= s.runs[r].n; r++ {
			i -= s.runs[r].n
		}
		if s.runs[r].n--; s.runs[r].n == 0 {
			s.runs = slices.Delete(s.runs, r, r+1)
		}
		return nil
	}
	if !s.k.Objects.Exists(oid) {
		return classify(fmt.Errorf("%w: oid %d", object.ErrNotFound, oid))
	}
	if i, staged := s.updateIdx[oid]; staged {
		s.updates[i] = nil // superseded by the delete
		delete(s.updateIdx, oid)
	}
	if _, staged := s.deleteIdx[oid]; staged {
		return nil
	}
	s.deleteIdx[oid] = len(s.deletes)
	s.deletes = append(s.deletes, oid)
	return nil
}

// Prepare is two-phase-commit phase one: it validates this session's
// staged updates and deletes exactly as Commit would (vanished targets,
// first-committer-wins against the read epoch) and locks the write set
// in the store, so a later Commit cannot fail validation — no competing
// writer can touch those objects between the phases. A prepared session
// accepts no further staging and must finish with Commit or Rollback;
// the locks are in-memory only, so a crash aborts the transaction
// implicitly. The federation coordinator votes shards through this
// path; embedded callers may use it for the same commit-cannot-conflict
// guarantee.
func (s *Session) Prepare() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkStaging(); err != nil {
		return classify(err)
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	var ops object.BatchOps
	for _, u := range s.updates {
		if u != nil {
			ops.Updates = append(ops.Updates, u)
		}
	}
	ops.Deletes = s.deletes
	ops.ReadEpoch = s.readEpoch
	token := prepareTokens.Add(1)
	if err := s.k.Objects.PrepareBatch(ops, token); err != nil {
		return classify(err)
	}
	s.prepToken = token
	return nil
}

// Commit applies every staged mutation atomically: one WAL batch (one
// fsync) covering the object records, one load task per class and note
// of the creates, and the sequence reservations, then one invalidation
// sweep marking all transitive dependents stale under a single epoch. If
// the batch fails (validation, conflict, I/O) nothing is applied; if the
// batch committed but the invalidation sweep then failed, the mutations
// ARE durable and the error says so — the caller must not re-ingest, and
// RefreshStale (or re-updating the roots) re-runs the propagation. Either
// way the session is finished. An empty session commits as a no-op.
func (s *Session) Commit() (err error) {
	_, sp := obs.StartWith(s.ctx, s.k.Tracer, "session/commit")
	start := time.Now()
	defer func() {
		s.k.commits.Inc()
		s.k.commitNS.ObserveSince(start)
		if errors.Is(err, ErrConflict) {
			s.k.commitConflicts.Inc()
		}
		if err != nil {
			sp.Annotate("error", err.Error())
		}
		sp.End()
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return classify(err)
	}
	s.done = true
	// A failed commit of a prepared session must not strand its write
	// locks (release is idempotent — after a successful ApplyBatch the
	// token is already dropped).
	defer func() {
		if err != nil && s.prepToken != 0 {
			s.k.Objects.ReleasePrepared(s.prepToken)
			s.prepToken = 0
		}
	}()
	if err := s.ctx.Err(); err != nil {
		return err
	}

	ops := object.BatchOps{Inserts: s.creates} // the list, not a copy
	staged := s.stageLoads()
	for _, u := range s.updates {
		if u == nil {
			continue // superseded by a staged delete
		}
		ops.Updates = append(ops.Updates, u)
	}
	ops.Deletes = s.deletes
	ops.ReadEpoch = s.readEpoch
	ops.PreparedToken = s.prepToken
	if len(ops.Inserts)+len(ops.Updates)+len(ops.Deletes) == 0 {
		return nil
	}
	// The load tasks commit in the batch and are published once it is
	// durable.
	epoch, err := s.k.Tasks.Apply(ops, staged)
	if err != nil {
		return classify(err)
	}
	if ev := s.k.Events; ev != nil {
		ev.Emit("commit_group", SevInfo, "session batch committed", map[string]string{
			"epoch":   fmt.Sprint(epoch),
			"creates": fmt.Sprint(len(ops.Inserts)),
			"updates": fmt.Sprint(len(ops.Updates)),
			"deletes": fmt.Sprint(len(ops.Deletes)),
		})
	}
	// Durable and published: propagate all mutations in ONE sweep under
	// the batch's commit epoch (so snapshot readers pinned before it do
	// not see the dependents as stale).
	updated := make([]object.OID, 0, len(ops.Updates))
	for _, u := range ops.Updates {
		updated = append(updated, u.OID)
	}
	if err := s.k.Deriv.ObjectsChanged(updated, ops.Deletes, epoch); err != nil {
		return classify(fmt.Errorf("gaea: session committed durably, but invalidation propagation failed (refresh or re-update to repropagate): %w", err))
	}
	return nil
}

// stageLoads stages one load task per (class, note) of the creates, in
// order of first appearance: its outputs are the whole set this session
// created with that class and note, folded from the list of creates into
// runs of back-to-back OIDs as Commit reads it.
func (s *Session) stageLoads() []*task.Task {
	type load struct {
		class, note string
		outputs     []task.Run
	}
	var loads []load
	at := make(map[[2]string]int)
	i := 0 // the first create of the run
	for _, run := range s.runs {
		key := [2]string{run.class.Name(), run.note}
		l, seen := at[key]
		if !seen {
			l = len(loads)
			at[key] = l
			loads = append(loads, load{class: key[0], note: key[1]})
		}
		runs := loads[l].outputs
		for _, c := range s.creates[i : i+run.n] {
			if n := len(runs); n > 0 && runs[n-1][0]+runs[n-1][1] == uint64(c.OID) {
				runs[n-1][1]++
			} else {
				runs = append(runs, task.Run{uint64(c.OID), 1})
			}
		}
		loads[l].outputs = runs
		i += run.n
	}
	var staged []*task.Task
	for _, l := range loads {
		staged = append(staged, s.k.Tasks.StageExternal("data_load", nil, l.outputs, l.class,
			task.RunOptions{User: s.user, Note: l.note})...)
	}
	return staged
}

// Rollback discards the staged work, releasing any write locks a
// Prepare took. Rolling back a finished session is a no-op. Reserved
// OIDs simply go unreferenced — at worst an OID gap.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
	if s.prepToken != 0 {
		s.k.Objects.ReleasePrepared(s.prepToken)
		s.prepToken = 0
	}
	return nil
}
