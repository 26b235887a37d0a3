package object

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sort"

	"gaea/internal/catalog"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
)

// Session-facing batch surface of the object store. A kernel session
// stages creates/updates/deletes and applies them here as ONE atomic
// storage batch committed at ONE epoch: every heap record (including
// extra rows such as the task-log entries for data loads) lands in a
// single WAL group with a single fsync, so a crash keeps either the
// whole session or none of it, and readers see either the whole session
// or none of it.

// ExtraRec is an opaque heap record committed in the same atomic batch as
// the object mutations (the kernel stages task-log rows this way).
type ExtraRec struct {
	Heap string
	Rec  []byte
}

// BatchOps stages a set of object mutations applied atomically. Insert
// objects must have been through Reserve (validated, OID assigned);
// update objects through CheckUpdate. An OID may appear at most once
// across Updates and Deletes.
type BatchOps struct {
	Inserts []*Object
	Updates []*Object
	Deletes []OID
	Extra   []ExtraRec
	// PinSeqs names sequences (beyond the store's own oid/blob) whose
	// in-memory reservations this batch references durably.
	PinSeqs []string
	// ReadEpoch, when non-zero, enables first-committer-wins validation:
	// an update or delete whose target committed a newer version after
	// this epoch fails the whole batch with ErrConflict. Sessions pass
	// the epoch they captured at Begin, derivations the epoch they read
	// their inputs at; internal mutators (GC drops) pass zero and win
	// last-writer style.
	ReadEpoch uint64
	// Reads is the batch's read set: objects it was computed from at
	// ReadEpoch. Under a non-zero ReadEpoch, one that has a version newer
	// than it by now, or is gone, fails the whole batch with ErrConflict,
	// so what a derivation commits matches its inputs at its commit epoch.
	Reads []OID
	// PreparedToken names the prepared two-phase transaction this batch
	// completes: targets locked under the SAME token pass validation
	// (the locks are this transaction's own), and the token's locks are
	// released once the batch commits. Zero for ordinary batches.
	PreparedToken uint64
}

// ValidateNew checks a new object against its class schema without
// persisting or assigning anything.
func (s *Store) ValidateNew(obj *Object) error {
	sch, err := s.schema(obj.Class)
	if err != nil {
		return err
	}
	return s.validate(sch.cls, obj)
}

// Class is a class's schema as the store lays out its records: a caller
// staging a run of creates of one class looks it up once (ClassOf) and
// reserves each against it (ReserveIn).
type Class struct{ sch *schema }

// Name returns the class's name.
func (c Class) Name() string { return c.sch.cls.Name }

// ClassOf returns the named class's schema.
func (s *Store) ClassOf(class string) (Class, error) {
	sch, err := s.schema(class)
	return Class{sch}, err
}

// Reserve validates a new object against its class schema and assigns it
// an OID from the store's sequence without persisting anything: ClassOf,
// then ReserveIn.
func (s *Store) Reserve(obj *Object) (OID, error) {
	c, err := s.ClassOf(obj.Class)
	if err != nil {
		return 0, err
	}
	return s.ReserveIn(c, obj)
}

// ReserveIn validates a new object of class c against c's schema and
// assigns it the next OID: one atomic add on the store's "oid" sequence,
// with no lock and no lookup. The reservation is in-memory only; it
// becomes durable with the batch that inserts the object (ApplyBatch
// pins the sequence). A reservation that is abandoned simply goes
// unreferenced — at worst an OID gap.
func (s *Store) ReserveIn(c Class, obj *Object) (OID, error) {
	if obj.Class != c.Name() {
		return 0, fmt.Errorf("%w: object of class %s reserved as %s", ErrBadAttr, obj.Class, c.Name())
	}
	if err := s.validate(c.sch.cls, obj); err != nil {
		return 0, err
	}
	obj.OID = OID(s.oids.Next())
	return obj.OID, nil
}

// CheckUpdate validates an update target without applying it: the new
// state must satisfy the class schema and the OID must currently resolve
// to a live object of that class.
func (s *Store) CheckUpdate(obj *Object) error {
	if obj.OID == 0 {
		return fmt.Errorf("%w: update needs an OID", ErrBadAttr)
	}
	sch, err := s.schema(obj.Class)
	if err != nil {
		return err
	}
	if err := s.validate(sch.cls, obj); err != nil {
		return err
	}
	s.mu.RLock()
	var cur *schema // nil unless the target is live
	if r, ok := s.rowOf(obj.OID); ok && r.flags&rowDel == 0 {
		cur = s.byNum[r.class]
	}
	s.mu.RUnlock()
	if cur == nil {
		return fmt.Errorf("%w: oid %d", ErrNotFound, obj.OID)
	}
	if cur != sch {
		return fmt.Errorf("%w: object %d is of class %s, not %s",
			ErrBadAttr, obj.OID, cur.cls.Name, obj.Class)
	}
	return nil
}

// ApplyBatch applies a staged set of mutations as one atomic storage
// batch at one fresh commit epoch, and returns that epoch. Encoding (with
// blob offload, and the check that each record fits a page) happens
// before the store lock is taken: the records go into an arena sized
// from the records encoded (encoder), each with room in front for the
// header of its OID and an epoch of any width, and each list is cut into
// runs of one class with the class's schema (encodedList). Once the
// epoch is reserved, each record is stamped in place and each run handed
// to the storage batch as one list: a create costs its record, its
// headroom and one list entry. Epoch reservation, conflict validation,
// the WAL group commit, and version publication happen under the store
// lock, so epochs become visible to readers in commit order. The
// versions the batch supersedes stay in their chains for pinned
// snapshots; the same batch reclaims those earlier commits superseded
// that no snapshot can see any more (reclaim.go). A target that vanished
// (or, under ReadEpoch, changed) since staging, or a read that vanished or
// changed since ReadEpoch, fails the whole batch with ErrConflict.
func (s *Store) ApplyBatch(ops BatchOps) (uint64, error) {
	var enc encoder
	enc.left = len(ops.Inserts) + len(ops.Updates)
	undoBlobs := func() {
		for _, b := range enc.newBlobs {
			_ = s.st.Blobs().Delete(b)
		}
	}
	inserts, err := s.encode(&enc, ops.Inserts, true)
	if err != nil {
		undoBlobs()
		return 0, err
	}
	updates, err := s.encode(&enc, ops.Updates, false)
	if err != nil {
		undoBlobs()
		return 0, err
	}

	// commitMu serialises mutators across the whole validate →
	// reserve-epoch → storage-commit → publish window: epochs publish in
	// reservation order, and the rows a validation saw cannot change
	// before publication. Readers are NOT excluded — they keep resolving
	// at their pinned epochs off the still-published state.
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	// Validate every mutated chain. A missing or tombstoned target means
	// a concurrent writer removed it since staging; under ReadEpoch, a
	// head newer than the session's read epoch means another session
	// committed first (first-committer-wins). A target locked by a
	// DIFFERENT prepared transaction conflicts regardless of epochs: the
	// lock holder's commit is already promised.
	s.mu.RLock()
	checkTarget := func(oid OID, want *schema) (*schema, error) {
		return s.checkTargetLocked(oid, want, ops.ReadEpoch, ops.PreparedToken)
	}
	for i, up := range updates.objs {
		if _, err := checkTarget(up.OID, updates.schemaOf(i)); err != nil {
			s.mu.RUnlock()
			undoBlobs()
			return 0, err
		}
	}
	for _, oid := range ops.Reads {
		if err := s.checkReadLocked(oid, ops.ReadEpoch); err != nil {
			s.mu.RUnlock()
			undoBlobs()
			return 0, err
		}
	}
	delSchemas := make([]*schema, len(ops.Deletes))
	for i, oid := range ops.Deletes {
		sch, err := checkTarget(oid, nil)
		if err != nil {
			s.mu.RUnlock()
			undoBlobs()
			return 0, err
		}
		delSchemas[i] = sch
	}
	// The batch deletes the records of what is garbage by now.
	b := s.st.NewBatch()
	gc := s.planReclaim(b)
	s.mu.RUnlock()

	// Reserve the commit epoch and stamp it into every record, then
	// commit the storage batch WITHOUT holding the reader-visible lock:
	// snapshot readers proceed against the pre-commit state throughout.
	epoch := s.st.ReserveEpoch()
	b.SetEpoch(epoch)
	// The reclamation staged deletes only, so the batch's inserts, and the
	// RIDs Commit reports, are the inserts', the updates', then the
	// tombstones', in order.
	inserts.stage(b, epoch)
	updates.stage(b, epoch)
	for i, oid := range ops.Deletes {
		b.Insert(delSchemas[i].heap, encodeTombstone(oid, epoch))
	}
	for _, ex := range ops.Extra {
		b.Insert(ex.Heap, ex.Rec)
	}
	for _, seq := range append([]string{"oid", "blob"}, ops.PinSeqs...) {
		b.PinSequence(seq)
	}
	rids, err := b.Commit()
	if err != nil {
		s.abandon(&gc)
		undoBlobs()
		return 0, err
	}

	// The batch is durable: unlink what it reclaimed, then publish the new
	// versions and the epoch, in one short exclusive window. The targets
	// are where validation found them: commitMu has kept every other
	// mutator out since. A pointer into rows is dropped before the next
	// row is put.
	s.mu.Lock()
	s.apply(&gc)
	insRIDs, upRIDs := rids[:len(inserts.objs)], rids[len(inserts.objs):len(inserts.objs)+len(updates.objs)]
	delRIDs := rids[len(inserts.objs)+len(updates.objs):]
	for _, run := range inserts.runs {
		var ci *classIndex // the run's class index, found with its first row
		for i := run.from; i < run.to; i++ {
			obj := inserts.objs[i]
			r := row{oid: obj.OID, epoch: epoch, rid: insRIDs[i], class: run.sch.num}
			s.setExt(&r, run.sch, obj.Extent)
			s.setHeadBlobs(&r, inserts.blobs[i])
			s.rows.Put(r)
			if ci == nil {
				ci = s.classIndexLocked(&r)
			}
			ci.add(&r)
		}
	}
	for i, up := range updates.objs {
		r := s.rows.Ptr(row{oid: up.OID})
		s.pushHead(r)
		r.epoch, r.rid = epoch, upRIDs[i]
		s.setHeadBlobs(r, updates.blobs[i])
		// An update that leaves the indexed part of the extent alone (the
		// usual one: new values, same place and time) leaves the indexes
		// alone.
		old, ext := s.extOf(r), up.Extent
		moved := old.Space != ext.Space || old.HasTime != ext.HasTime || (ext.HasTime && old.TimeIv != ext.TimeIv)
		if moved {
			s.unindexLocked(r)
		}
		s.setExt(r, updates.schemaOf(i), ext)
		ci := s.classIndexLocked(r)
		if moved {
			ci.add(r)
		}
		ci.changed = append(ci.changed, changeEnt{epoch: epoch, oid: up.OID})
		s.queue = append(s.queue, garbage{at: epoch, oid: up.OID})
	}
	for i, oid := range ops.Deletes {
		r := s.rows.Ptr(row{oid: oid})
		s.unindexLocked(r)
		s.pushHead(r)
		r.epoch, r.rid = epoch, delRIDs[i]
		r.flags |= rowDel
		s.setHeadBlobs(r, nil)
		ci := s.classes[delSchemas[i].cls.Name]
		ci.changed = append(ci.changed, changeEnt{epoch: epoch, oid: oid})
		s.queue = append(s.queue, garbage{at: epoch, oid: oid})
	}
	s.epoch = epoch
	after := s.AfterCommit
	s.mu.Unlock()
	// The commit stands whatever happens to the blobs: one left behind
	// belongs to no version, and the next open drops it.
	_ = s.dropBlobs(&gc)

	if ops.PreparedToken != 0 {
		s.dropPrepared(ops.PreparedToken)
	}
	if after != nil {
		after()
	}
	return epoch, nil
}

// putBlob stores an offloaded image under a fresh blob id: an in-memory
// reservation that the batch referencing it pins at commit.
func (s *Store) putBlob(data []byte) (storage.BlobID, error) {
	id := storage.BlobID(s.blobIDs.Next())
	return id, s.st.Blobs().Put(id, data)
}

// encoder appends a batch's records to an arena grown from the records
// it has encoded: it starts at one record's room, and when the room left
// will not take the next record, a new arena takes over, sized for the
// records left at the rate of those encoded so far, a sixteenth over. So a
// load of n like records makes about two allocations for them, sized to
// the records rather than to their widest case. No record moves: each
// stays in the arena it was encoded in.
type encoder struct {
	arena    []byte
	done     int // records encoded
	bytes    int // the bytes they take
	left     int // records still to encode
	newBlobs []storage.BlobID
}

// room makes room in the arena for a record that takes up to need bytes.
func (e *encoder) room(need int) {
	if cap(e.arena)-len(e.arena) >= need {
		return
	}
	want := need
	if e.done > 0 {
		rate := e.bytes/e.done + 1
		want += (rate + rate/16) * (e.left - 1)
	}
	e.arena = make([]byte, 0, want)
}

// encodedList is a list of objects encoded as records, their headers not
// yet stamped: recs[i] is the record of objs[i], and blobs[i] the blob
// ids it refers to (nil for most lists: no object of theirs has an
// image). runs cut the list into runs of one class, each with its
// schema.
type encodedList struct {
	objs  []*Object
	recs  [][]byte
	blobs map[int][]storage.BlobID
	runs  []schemaRun
}

// schemaRun is objs[from:to] of an encodedList, all of one class.
type schemaRun struct {
	sch      *schema
	from, to int
}

// schemaOf returns the schema of objs[i].
func (l *encodedList) schemaOf(i int) *schema {
	r, _ := slices.BinarySearchFunc(l.runs, i, func(run schemaRun, i int) int { return cmp.Compare(run.to, i+1) })
	return l.runs[r].sch
}

// encode appends the records of objs to the encoder's arena, offloading
// images, and checks that each fits a page. Inserts must carry a
// reserved OID.
func (s *Store) encode(e *encoder, objs []*Object, inserts bool) (encodedList, error) {
	l := encodedList{objs: objs}
	if len(objs) == 0 {
		return l, nil
	}
	l.recs = make([][]byte, len(objs))
	for i, obj := range objs {
		if inserts && obj.OID == 0 {
			return l, fmt.Errorf("%w: batch insert without a reserved OID", ErrBadAttr)
		}
		if n := len(l.runs); n == 0 || l.runs[n-1].sch.cls.Name != obj.Class {
			sch, err := s.schema(obj.Class)
			if err != nil {
				return l, err
			}
			l.runs = append(l.runs, schemaRun{sch: sch, from: i})
		}
		run := &l.runs[len(l.runs)-1]
		run.to = i + 1
		e.room(recordCap(run.sch))
		at := len(e.arena)
		var blobs []storage.BlobID
		var err error
		e.arena, blobs, err = appendObject(e.arena, run.sch, obj, s.putBlob)
		e.newBlobs = append(e.newBlobs, blobs...)
		if err != nil {
			return l, err
		}
		if n := len(e.arena) - at; n > storage.MaxRecordLen { // the body behind room for the widest header
			return l, fmt.Errorf("%w: object %d (class %s) encodes to %d bytes inline, a record holds %d; store large payloads as images",
				ErrBadAttr, obj.OID, obj.Class, n, storage.MaxRecordLen)
		}
		if len(blobs) > 0 {
			if l.blobs == nil {
				l.blobs = make(map[int][]storage.BlobID)
			}
			l.blobs[i] = blobs
		}
		l.recs[i] = e.arena[at:]
		e.bytes += len(l.recs[i])
		e.done++
		e.left--
	}
	return l, nil
}

// stage stamps each record of the list with its OID and the commit
// epoch and hands the records to b, a run at a time.
func (l *encodedList) stage(b *storage.Batch, epoch uint64) {
	for _, run := range l.runs {
		for i := run.from; i < run.to; i++ {
			l.recs[i] = stamp(l.recs[i], l.objs[i].OID, epoch)
		}
		b.InsertRun(run.sch.heap, l.recs[run.from:run.to])
	}
}

// checkTargetLocked validates one mutation target and returns its class.
// Callers hold commitMu (which guards prepLocks) and s.mu at least shared
// (which guards rows).
func (s *Store) checkTargetLocked(oid OID, want *schema, readEpoch, token uint64) (*schema, error) {
	r, ok := s.rowOf(oid)
	if !ok || r.flags&rowDel != 0 {
		return nil, fmt.Errorf("%w: oid %d vanished before commit", ErrConflict, oid)
	}
	sch := s.byNum[r.class]
	if want != nil && sch != want {
		return nil, fmt.Errorf("%w: object %d is of class %s, not %s",
			ErrBadAttr, oid, sch.cls.Name, want.cls.Name)
	}
	if holder, locked := s.prepLocks[oid]; locked && holder != token {
		return nil, fmt.Errorf("%w: oid %d is locked by prepared transaction %d", ErrConflict, oid, holder)
	}
	if readEpoch > 0 && r.epoch > readEpoch {
		return nil, fmt.Errorf("%w: oid %d committed at epoch %d after this session's read epoch %d",
			ErrConflict, oid, r.epoch, readEpoch)
	}
	return sch, nil
}

// checkReadLocked validates one member of a batch's read set: it must
// still be live, with no version newer than readEpoch (0 skips the
// check). Callers hold commitMu and s.mu at least shared.
func (s *Store) checkReadLocked(oid OID, readEpoch uint64) error {
	if readEpoch == 0 {
		return nil
	}
	r, ok := s.rowOf(oid)
	if !ok || r.flags&rowDel != 0 {
		return fmt.Errorf("%w: input %d vanished after it was read at epoch %d", ErrConflict, oid, readEpoch)
	}
	if r.epoch > readEpoch {
		return fmt.Errorf("%w: input %d committed at epoch %d after it was read at epoch %d",
			ErrConflict, oid, r.epoch, readEpoch)
	}
	return nil
}

// PrepareBatch is two-phase-commit phase one at the store level: it
// runs exactly the validation ApplyBatch would (vanished or conflicting
// targets, foreign prepared locks) and, on success, locks every update
// and delete target under the transaction token. Until the token is
// resolved — ApplyBatch with the same PreparedToken, or
// ReleasePrepared — no other batch can touch those targets, so the
// later ApplyBatch cannot fail first-committer-wins validation: the
// vote to commit is a promise the store keeps. Nothing is written; a
// crash simply loses the locks (presumed abort).
func (s *Store) PrepareBatch(ops BatchOps, token uint64) error {
	if token == 0 {
		return fmt.Errorf("%w: prepare requires a transaction token", ErrBadAttr)
	}
	want := make([]*schema, len(ops.Updates))
	for i, up := range ops.Updates {
		var err error
		if want[i], err = s.schema(up.Class); err != nil {
			return err
		}
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.RLock()
	targets := make([]OID, 0, len(ops.Updates)+len(ops.Deletes))
	for i, up := range ops.Updates {
		if _, err := s.checkTargetLocked(up.OID, want[i], ops.ReadEpoch, token); err != nil {
			s.mu.RUnlock()
			return err
		}
		targets = append(targets, up.OID)
	}
	for _, oid := range ops.Deletes {
		if _, err := s.checkTargetLocked(oid, nil, ops.ReadEpoch, token); err != nil {
			s.mu.RUnlock()
			return err
		}
		targets = append(targets, oid)
	}
	s.mu.RUnlock()
	for _, oid := range targets {
		s.prepLocks[oid] = token
	}
	return nil
}

// ReleasePrepared drops every lock held by a prepared transaction (the
// abort path; the commit path releases through ApplyBatch). Unknown
// tokens are a no-op — release must be idempotent.
func (s *Store) ReleasePrepared(token uint64) {
	if token == 0 {
		return
	}
	s.commitMu.Lock()
	s.dropPrepared(token)
	s.commitMu.Unlock()
}

// dropPrepared removes a token's locks. Caller holds commitMu.
func (s *Store) dropPrepared(token uint64) {
	for oid, holder := range s.prepLocks {
		if holder == token {
			delete(s.prepLocks, oid)
		}
	}
}

// QueryFromAt streams the OIDs of class objects whose extent matches pred
// at the snapshot epoch, in ascending OID order, starting strictly after
// `after` (0 = from the start). The candidate set — newest-version indexes
// plus the changed-overlay, OIDs only — is collected once per (class,
// predicate, epoch) and remembered (walkCandidates), so a walk resumed
// page after page seeks to its cursor and touches the candidates of its
// page, not the whole predicate again; visibility resolution and extent
// verification happen lazily per pull. The caller must hold a pin on the
// epoch for the duration of the iteration, which makes resolution stable:
// a candidate visible at the epoch cannot be reclaimed mid-drain, so a
// consumer resuming from a cursor sees exactly the snapshot — no skips,
// no phantoms.
func (s *Store) QueryFromAt(class string, pred sptemp.Extent, after OID, epoch uint64) iter.Seq2[OID, error] {
	return func(yield func(OID, error) bool) {
		if !s.cat.Exists(class) {
			yield(0, fmt.Errorf("%w: class %q", catalog.ErrClassNotFound, class))
			return
		}
		candidates := s.walkCandidates(class, pred, epoch)
		from := sort.Search(len(candidates), func(i int) bool { return candidates[i] > after })
		examined := 0
		defer func() { s.examined.Add(int64(examined)) }()
		for _, oid := range candidates[from:] {
			examined++
			ext, ok, err := s.extentAt(oid, epoch)
			if err != nil {
				yield(0, err)
				return
			}
			if !ok || !ext.Matches(pred) {
				continue // not visible at this snapshot, or not in it there
			}
			if !yield(oid, nil) {
				return
			}
		}
	}
}
