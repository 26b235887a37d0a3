// Package object manages scientific data objects — the instances of
// non-primitive classes (§2.1.2). Every object carries an OID, its class
// name, attribute values, and its spatio-temporal extent. Objects persist
// in the storage engine, one heap per class, as records relative to that
// class (record.go has both record forms and the one walker over them;
// no other package knows the layout); large image payloads are offloaded
// to the blob store (the paper's image ADT likewise stores a filepath,
// not inline pixels). Per-class grid and interval indexes serve the
// extent-qualified retrieval that is step 1 of the §2.1.5 query sequence;
// the extents they index live on the version chains' rows.
//
// The store's one entry per object is that row: a fixed-size value with
// no pointer in it, kept in OID order in a sorted run of fixed-size blocks
// (internal/sorted), as the grid index keeps its postings. Loading an
// object adds no heap object and nothing the collector marks; only older
// versions and image blob ids, which few objects have, live in maps beside
// the rows.
//
// The store is multi-versioned: every commit happens at a monotonically
// increasing epoch (reserved from the storage layer and stamped into the
// WAL group), and updates and deletes append new versions to a per-OID
// chain instead of mutating in place. The extent indexes always describe
// the newest version; the chains resolve visibility for snapshot readers
// pinned at an earlier epoch, so reads never block writes and a pinned
// reader sees exactly the state of its epoch. A superseded version is
// garbage once no snapshot can see it, and the commit that finds it so
// reclaims it in its own storage batch (reclaim.go).
package object

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gaea/internal/catalog"
	"gaea/internal/obs"
	"gaea/internal/raster"
	"gaea/internal/sorted"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

// OID identifies a data object globally.
type OID uint64

// Errors returned by the object store.
var (
	ErrNotFound = errors.New("object: not found")
	ErrBadAttr  = errors.New("object: attribute error")
	// ErrConflict reports that an object changed (or vanished) under a
	// concurrent mutation between staging and applying a write —
	// first-committer-wins for sessions validating against a read epoch.
	ErrConflict = errors.New("object: concurrent modification")
	// ErrSnapshotGone reports that a snapshot epoch (typically carried by
	// a resumed stream cursor) has fallen behind the GC horizon: the
	// versions it would need may have been reclaimed.
	ErrSnapshotGone = errors.New("object: snapshot epoch reclaimed by GC")
)

// Object is one scientific data object.
type Object struct {
	OID    OID
	Class  string
	Attrs  map[string]value.Value
	Extent sptemp.Extent
}

// Attr returns an attribute value, including the automatic extent
// accessors spatialextent and timestamp.
func (o *Object) Attr(name string) (value.Value, error) {
	switch name {
	case "spatialextent":
		return value.Box(o.Extent.Space), nil
	case "timestamp":
		if !o.Extent.HasTime {
			return nil, fmt.Errorf("%w: object %d has no temporal extent", ErrBadAttr, o.OID)
		}
		return value.AbsTime(o.Extent.TimeIv.Start), nil
	}
	v, ok := o.Attrs[name]
	if !ok {
		return nil, fmt.Errorf("%w: object %d (class %s) has no attribute %q", ErrBadAttr, o.OID, o.Class, name)
	}
	return v, nil
}

// version is one committed state of an object: the heap record holding
// that state, the blobs it owns, and the commit epoch it became visible
// at. A tombstone version (del) records a deletion.
type version struct {
	epoch uint64
	rid   storage.RID
	blobs []storage.BlobID
	del   bool
}

// row is an object's version chain as the store keeps it: one value per
// OID in the sorted run Store.rows, with no pointer in it, so that the
// collector never looks at a row. It holds the newest version inline —
// its epoch, its record, whether it is a tombstone — and the extent of
// the newest live version: what the class's extent indexes describe (they
// keep ids only and are told the extent to remove), and what an extent
// check of that version reads instead of its record. Nothing reads the
// extent under a tombstone. A tombstone, when present, is always the
// newest version: OIDs are never reused, so nothing commits after a
// delete.
//
// What does not fit a fixed-size value lives beside the run, flagged on
// the row: older versions in Store.older, the newest version's blob ids in
// Store.blobs. An object stored once, without images, touches neither.
type row struct {
	oid   OID
	epoch uint64
	box   sptemp.Box
	iv    sptemp.Interval
	rid   storage.RID
	// frame is 0 for the class's frame, else an index into Store.frames.
	frame uint32
	// class indexes Store.byNum.
	class uint16
	flags uint8
}

const (
	rowDel   uint8 = 1 << iota // the newest version is a tombstone
	rowTimed                   // the extent has a time interval
	rowOlder                   // older versions wait in Store.older
	rowBlobs                   // the newest version's blob ids are in Store.blobs
)

func compareRows(a, b row) int { return cmp.Compare(a.oid, b.oid) }

// rowOf returns oid's row. Callers hold mu.
func (s *Store) rowOf(oid OID) (row, bool) { return s.rows.Get(row{oid: oid}) }

// head returns a row's newest version. Callers hold mu.
func (s *Store) head(r *row) version {
	v := version{epoch: r.epoch, rid: r.rid, del: r.flags&rowDel != 0}
	if r.flags&rowBlobs != 0 {
		v.blobs = s.blobs[r.oid]
	}
	return v
}

// extOf returns the extent on a row. Callers hold mu.
func (s *Store) extOf(r *row) sptemp.Extent {
	ext := sptemp.Extent{Frame: s.frames[r.frame], Space: r.box, TimeIv: r.iv, HasTime: r.flags&rowTimed != 0}
	if r.frame == 0 {
		ext.Frame = s.byNum[r.class].cls.Frame
	}
	return ext
}

// setExt puts the extent of a version of class sch on a row. Callers hold
// mu exclusively, or own a store that is still opening: a frame that is
// not the class's enters the frame table.
func (s *Store) setExt(r *row, sch *schema, ext sptemp.Extent) {
	r.box, r.iv, r.frame = ext.Space, ext.TimeIv, 0
	r.flags &^= rowTimed
	if ext.HasTime {
		r.flags |= rowTimed
	}
	if ext.Frame != sch.cls.Frame {
		n, ok := s.frameNum[ext.Frame]
		if !ok {
			n = uint32(len(s.frames))
			s.frames = append(s.frames, ext.Frame)
			s.frameNum[ext.Frame] = n
		}
		r.frame = n
	}
}

// setHeadBlobs records the blob ids of a row's newest version. Callers
// hold mu exclusively.
func (s *Store) setHeadBlobs(r *row, blobs []storage.BlobID) {
	switch {
	case len(blobs) > 0:
		s.blobs[r.oid] = blobs
		r.flags |= rowBlobs
	case r.flags&rowBlobs != 0:
		delete(s.blobs, r.oid)
		r.flags &^= rowBlobs
	}
}

// pushHead moves a row's newest version to the end of its older versions,
// for the caller to put a newer one in its place. Callers hold mu
// exclusively.
func (s *Store) pushHead(r *row) {
	s.older[r.oid] = append(s.older[r.oid], s.head(r))
	r.flags |= rowOlder
}

// visibleAt resolves the version a snapshot pinned at epoch sees: the
// newest version at or below it (latestEpoch, the largest epoch there is,
// sees the head). ok is false when the object does not exist at that
// epoch (born later, or deleted at or before it); isHead tells whether
// the version is the newest, whose extent is on the row. Callers hold mu.
func (s *Store) visibleAt(r *row, epoch uint64) (v version, isHead, ok bool) {
	if r.epoch <= epoch {
		return s.head(r), true, r.flags&rowDel == 0
	}
	if r.flags&rowOlder != 0 {
		vers := s.older[r.oid]
		for i := len(vers) - 1; i >= 0; i-- {
			if v := vers[i]; v.epoch <= epoch {
				return v, false, !v.del
			}
		}
	}
	return version{}, false, false
}

// changeEnt records that an object of a class changed (update or delete)
// at an epoch. Snapshot queries union these with the newest-version index
// candidates: anything the index no longer describes for a given snapshot
// is in here, and reclamation prunes the entries of the changes whose
// superseded versions it took.
type changeEnt struct {
	epoch uint64
	oid   OID
}

// classIndex is what the store keeps per class beside the rows: the
// extent indexes and sorted membership over the NEWEST live versions,
// rebuilt at open, and the overlay log snapshot readers add to them. The
// indexes hold OIDs only; each member's extent is on its row.
type classIndex struct {
	grid    *sptemp.GridIndex
	times   sptemp.IntervalIndex
	members []OID
	// changed is (epoch, oid) per update or delete, ascending by epoch,
	// pruned with the reclamation queue.
	changed []changeEnt
}

// MVCCStats summarises version-store health for Kernel.Stats.
type MVCCStats struct {
	// Epoch is the latest published commit epoch.
	Epoch uint64
	// LiveVersions counts stored versions across all chains (including
	// tombstones awaiting GC).
	LiveVersions int
	// Reclaimed counts versions dropped by GC since open.
	Reclaimed int64
	// Pins counts currently pinned snapshot epochs (with multiplicity).
	Pins int
	// OldestPin is the lowest pinned epoch (0 when nothing is pinned) —
	// the GC horizon floor.
	OldestPin uint64
	// GCFloor is the latest epoch a reclaimed version was superseded at:
	// cursors and snapshots below it cannot be re-pinned.
	GCFloor uint64
}

// Store persists objects and serves extent queries.
//
// Locking: mu guards the in-memory state (rows and what lies beside them,
// classes, pins, epoch); readers hold it shared and briefly — never
// across storage I/O, and never keeping a pointer into rows past it, since
// an insert may move the rows of a block. commitMu serialises mutators
// (ApplyBatch, GC) across their whole validate → reserve-epoch →
// storage-commit → publish window, so epochs publish in reservation
// order; mu is taken exclusively only for the final in-memory publish,
// which is why snapshot readers are not serialised behind a committing
// writer.
type Store struct {
	mu       sync.RWMutex
	commitMu sync.Mutex
	st       *storage.Store
	cat      *catalog.Catalog
	// oids and blobIDs are the store's sequences, held so that a
	// reservation is one atomic add (ReserveIn, putBlob).
	oids, blobIDs *storage.Sequence
	// schemas caches each class's *schema by class name (see record.go);
	// byNum lists them by the number rows carry, appended under mu.
	schemas sync.Map
	byNum   []*schema
	// frames holds the frames of extents that are not their class's, by
	// the number rows carry (0 stands for the class frame), and frameNum
	// the number of each.
	frames   []sptemp.Frame
	frameNum map[sptemp.Frame]uint32
	// rows holds every OID's version chain, including OIDs whose newest
	// version is a tombstone (still visible to pinned snapshots), and with
	// it the newest extent: the store's one entry per object.
	rows *sorted.Run[row]
	// older holds the superseded versions of the rows flagged rowOlder,
	// ascending by epoch; blobs the newest version's blob ids of the rows
	// flagged rowBlobs.
	older map[OID][]version
	blobs map[OID][]storage.BlobID
	// queue holds one entry per superseded version not yet reclaimed,
	// ascending by the epoch it was superseded at (reclaim.go); gcVisited
	// is how many entries the last reclamation pass looked at. Both are
	// guarded by commitMu.
	queue     []garbage
	gcVisited int
	// classes holds the per-class indexes over those extents, by class
	// name; a class enters with its first object.
	classes map[string]*classIndex
	// memo remembers the candidate sets of recent snapshot walks, so that
	// a paged scan collects its candidates once, not once per page (see
	// walkCandidates for why a remembered set stays right).
	memo candMemo
	// epoch is the latest PUBLISHED commit epoch: reservations advance the
	// storage counter first, but readers see a new epoch only once its
	// batch is committed and indexed, which happens under mu.
	epoch uint64
	// pins refcounts snapshot epochs protected from GC; leases holds the
	// epochs streams stopped at with a cursor, each protected until its
	// time passes (Lease).
	pins   map[uint64]int
	leases map[uint64]time.Time
	// gcFloor is the latest epoch a reclaimed version was superseded at:
	// no epoch below it can be pinned. Only a reclamation pass writes it,
	// under commitMu and before its batch commits (reclaim.go).
	gcFloor   atomic.Uint64
	reclaimed int64
	// resolved, when set, runs between resolving a version and reading it
	// (read); tests race a reclamation against a read through it.
	resolved func(OID)

	// prepLocks maps an OID locked by a prepared (but undecided)
	// two-phase transaction to its transaction token. Guarded by
	// commitMu, like every other mutator-side structure: PrepareBatch
	// records locks after validating, ApplyBatch refuses to touch an OID
	// locked by a DIFFERENT token, and the owning token's commit or
	// ReleasePrepared clears them. Locks are in-memory only — a crashed
	// shard loses its prepared state, which is exactly the presumed-abort
	// contract (nothing was WAL-committed before the decision).
	prepLocks map[OID]uint64

	// AfterCommit, when set, runs after every committed batch (outside
	// the store lock). The kernel hooks its auto-checkpoint trigger here.
	AfterCommit func()

	// Registry instruments (nil until RegisterMetrics; obs instruments
	// no-op as nil, so unobserved stores pay nothing).
	gcRuns *obs.Counter
	gcNS   *obs.Histogram
	// examined counts the candidate OIDs QueryAt and QueryFromAt handled:
	// once when a candidate set is collected from the indexes and overlay,
	// once more per candidate resolved through its chain and checked.
	// Against the objects returned it shows whether a scan's cost follows
	// what it ships (2 per object) or pages × the box it searches.
	examined *obs.Counter
}

func heapFor(class string) string { return "obj_" + class }

// Open loads the object store, rebuilding version chains and in-memory
// indexes by scanning each class heap. Every record carries its commit
// epoch, so the chain order (and the epoch counter) is recovered exactly;
// the superseded versions found are queued for the first commit, or GC,
// to reclaim. The scan reads record headers and blob references only: no
// attribute value is decoded. Blobs no version refers to are dropped from
// the blob store.
func Open(st *storage.Store, cat *catalog.Catalog) (*Store, error) {
	s := &Store{
		st:        st,
		cat:       cat,
		oids:      st.Sequence("oid"),
		blobIDs:   st.Sequence("blob"),
		frames:    []sptemp.Frame{{}},
		frameNum:  make(map[sptemp.Frame]uint32),
		rows:      sorted.New(compareRows),
		older:     make(map[OID][]version),
		blobs:     make(map[OID][]storage.BlobID),
		classes:   make(map[string]*classIndex),
		pins:      make(map[uint64]int),
		leases:    make(map[uint64]time.Time),
		prepLocks: make(map[OID]uint64),
	}
	// scanned is one heap record, as the row it would be were it the
	// newest version, and where its blob ids lie in ids.
	type scanned struct {
		row
		blobAt, blobEnd int
	}
	var (
		recs     []scanned
		ids      []storage.BlobID
		maxEpoch uint64
	)
	for _, class := range cat.Names() {
		sch, err := s.schema(class)
		if err != nil {
			return nil, err
		}
		var scanErr error
		err = st.Scan(sch.heap, func(rid storage.RID, raw []byte) bool {
			w, err := parseRecord(raw, sch)
			var blobIDs []storage.BlobID
			if err == nil {
				blobIDs, err = w.blobIDs()
			}
			if err != nil {
				scanErr = fmt.Errorf("object: corrupt record %s in %s: %w", rid, sch.heap, err)
				return false
			}
			rec := scanned{row: row{oid: w.oid, epoch: w.epoch, rid: rid, class: sch.num}, blobAt: len(ids)}
			ids = append(ids, blobIDs...)
			rec.blobEnd = len(ids)
			if w.del {
				rec.flags = rowDel
			} else {
				s.setExt(&rec.row, sch, w.ext)
			}
			recs = append(recs, rec)
			maxEpoch = max(maxEpoch, w.epoch)
			return true
		})
		if err != nil {
			return nil, err
		}
		if scanErr != nil {
			return nil, scanErr
		}
	}
	// Heap order is neither OID nor epoch order. One sort puts each OID's
	// versions side by side, oldest first, and the OIDs in ascending order,
	// so that the rows, each class's sorted membership and its postings
	// all grow by appends.
	slices.SortFunc(recs, func(a, b scanned) int {
		if c := cmp.Compare(a.oid, b.oid); c != 0 {
			return c
		}
		return cmp.Compare(a.epoch, b.epoch)
	})
	blobsOf := func(rec *scanned) []storage.BlobID {
		if rec.blobAt == rec.blobEnd {
			return nil
		}
		return ids[rec.blobAt:rec.blobEnd:rec.blobEnd]
	}
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].oid == recs[i].oid {
			j++
		}
		head := &recs[j-1]
		r := head.row
		if j-i > 1 {
			vers := make([]version, 0, j-i-1)
			for k := i; k < j-1; k++ {
				rec := &recs[k]
				vers = append(vers, version{epoch: rec.epoch, rid: rec.rid, blobs: blobsOf(rec), del: rec.flags&rowDel != 0})
				// The next version superseded this one: queue it, so that
				// the first commit (or GC) reclaims what a crash, or a
				// close, left behind.
				s.queue = append(s.queue, garbage{at: recs[k+1].epoch, oid: r.oid})
			}
			s.older[r.oid] = vers
			r.flags |= rowOlder
		}
		s.setHeadBlobs(&r, blobsOf(head))
		if r.flags&rowDel == 0 {
			s.classIndexLocked(&r).add(&r)
		}
		s.rows.Put(r)
		i = j
	}
	// A blob no version refers to was put for a batch that never committed,
	// or its delete was lost in a crash: the next checkpoint drops it.
	referenced := make(map[storage.BlobID]bool, len(ids))
	for _, id := range ids {
		referenced[id] = true
	}
	st.Blobs().Retain(referenced)
	slices.SortFunc(s.queue, func(a, b garbage) int { return cmp.Compare(a.at, b.at) })
	if maxEpoch == 0 {
		// Floor the epoch at 1 so a session's read epoch is never 0 —
		// BatchOps.ReadEpoch uses 0 as the "skip validation" sentinel, and
		// the first sessions of an empty store, which has no record to
		// take an epoch from, must still get first-committer-wins checks.
		maxEpoch = 1
	}
	st.AdvanceEpoch(maxEpoch)
	s.epoch = st.Epoch()
	// Pins do not survive a restart, so neither do snapshots or stream
	// cursors: GC may already have run at any horizon up to the current
	// epoch before the crash (the floor is not persisted), and the
	// changed-overlay is not reconstructed. Refusing pre-restart epochs
	// outright (ErrSnapshotGone) is honest where resuming them could be
	// silently incomplete.
	s.gcFloor.Store(s.epoch)
	return s, nil
}

// headBox is the extent indexes' lookup: the box of an indexed object's
// newest version. Callers hold mu.
func (s *Store) headBox(id uint64) sptemp.Box {
	r, _ := s.rowOf(OID(id))
	return r.box
}

// classIndexLocked returns the indexes of r's class, made on first use
// with grid cells sized off r's box.
func (s *Store) classIndexLocked(r *row) *classIndex {
	class := s.byNum[r.class].cls.Name
	ci := s.classes[class]
	if ci == nil {
		ci = &classIndex{grid: sptemp.NewGridIndex(spatialCellFor(r.box), s.headBox)}
		s.classes[class] = ci
	}
	return ci
}

// add enters an object of the class, by the extent on its row, into the
// newest-version indexes and membership.
func (ci *classIndex) add(r *row) {
	ci.grid.Insert(uint64(r.oid), r.box)
	if r.flags&rowTimed != 0 {
		ci.times.Insert(uint64(r.oid), r.iv)
	}
	if n := len(ci.members); n == 0 || ci.members[n-1] < r.oid {
		if n == cap(ci.members) {
			// Double the list: past 256 entries append grows it by less,
			// so loading a class of millions would copy it more often.
			ci.members = append(make([]OID, 0, max(8, 2*n)), ci.members...)
		}
		ci.members = append(ci.members, r.oid)
	} else if i, found := slices.BinarySearch(ci.members, r.oid); !found {
		ci.members = slices.Insert(ci.members, i, r.oid)
	}
}

// unindexLocked removes an object, its row still carrying the extent it
// was indexed by, from the newest-version indexes (its chain — and so its
// visibility to pinned snapshots — is untouched).
func (s *Store) unindexLocked(r *row) {
	ci := s.classes[s.byNum[r.class].cls.Name]
	ci.grid.Delete(uint64(r.oid), r.box)
	if r.flags&rowTimed != 0 {
		ci.times.Delete(uint64(r.oid), r.iv)
	}
	if i, found := slices.BinarySearch(ci.members, r.oid); found {
		ci.members = slices.Delete(ci.members, i, i+1)
	}
}

// spatialCellFor sizes grid cells off the first-seen extent so typical
// scene-sized boxes land in a handful of cells.
func spatialCellFor(b sptemp.Box) float64 {
	w := b.Width()
	if w <= 0 {
		return 1
	}
	return w
}

// Insert validates the object against its class schema, assigns an OID,
// and commits it as a single-op batch at a fresh epoch.
func (s *Store) Insert(obj *Object) (OID, error) {
	if _, err := s.Reserve(obj); err != nil {
		return 0, err
	}
	if _, err := s.ApplyBatch(BatchOps{Inserts: []*Object{obj}}); err != nil {
		return 0, err
	}
	return obj.OID, nil
}

// validate checks obj against its class: every attribute of the class
// present with a value of its type, no other attribute, and the extent the
// class requires. It looks the attributes up in class order; only an
// object that fails that check has its map walked, for the error.
func (s *Store) validate(cls *catalog.Class, obj *Object) error {
	ok := len(obj.Attrs) == len(cls.Attrs)
	for i := 0; ok && i < len(cls.Attrs); i++ {
		a := &cls.Attrs[i]
		v := obj.Attrs[a.Name]
		ok = v != nil && fits(v.Type(), a.Type)
	}
	if !ok {
		return badAttrs(cls, obj)
	}
	if cls.HasSpatial && obj.Extent.Space.IsEmpty() {
		return fmt.Errorf("%w: class %s requires a spatial extent", ErrBadAttr, cls.Name)
	}
	if cls.HasSpatial && !obj.Extent.Frame.Compatible(cls.Frame) {
		return fmt.Errorf("%w: object frame %s, class frame %s", ErrBadAttr, obj.Extent.Frame, cls.Frame)
	}
	if cls.HasTemporal && !obj.Extent.HasTime {
		return fmt.Errorf("%w: class %s requires a temporal extent", ErrBadAttr, cls.Name)
	}
	return nil
}

// fits reports whether a value of type t may fill an attribute of type
// want: a singleton scalar satisfies a set-typed attribute.
func fits(t, want value.Type) bool {
	if t == want {
		return true
	}
	elem, isSet := want.IsSet()
	return isSet && t == elem
}

// badAttrs returns the error for an object whose attributes do not match
// its class.
func badAttrs(cls *catalog.Class, obj *Object) error {
	for name, v := range obj.Attrs {
		a, ok := cls.Attr(name)
		if !ok {
			return fmt.Errorf("%w: class %s has no attribute %q", ErrBadAttr, cls.Name, name)
		}
		if v == nil {
			return fmt.Errorf("%w: attribute %q is nil", ErrBadAttr, name)
		}
		if !fits(v.Type(), a.Type) {
			return fmt.Errorf("%w: attribute %q is %s, schema says %s", ErrBadAttr, name, v.Type(), a.Type)
		}
	}
	for _, a := range cls.Attrs {
		if _, ok := obj.Attrs[a.Name]; !ok {
			return fmt.Errorf("%w: attribute %q missing", ErrBadAttr, a.Name)
		}
	}
	return nil
}

// Update commits a new version of an existing object (same OID, same
// class) at a fresh epoch. The superseded version stays reachable while
// a snapshot pinned below that epoch can see it. Update does not touch
// derivation metadata — the kernel's session commit wraps it with
// staleness propagation.
// Internal callers (refresh) win over concurrent versions last-writer
// style; session commits validate first-committer-wins via
// BatchOps.ReadEpoch instead.
func (s *Store) Update(obj *Object) error {
	if err := s.CheckUpdate(obj); err != nil {
		return err
	}
	_, err := s.ApplyBatch(BatchOps{Updates: []*Object{obj}})
	return err
}

// Exists reports whether an OID currently resolves to a live object (at
// the newest epoch).
func (s *Store) Exists(oid OID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.rowOf(oid)
	return ok && r.flags&rowDel == 0
}

// RecordSize returns the stored footprint of an object in bytes: its
// newest heap record plus any offloaded blobs. The derived-data manager
// weighs this against recorded recomputation cost when deciding whether
// to keep or drop an invalidated derived object.
func (s *Store) RecordSize(oid OID) (int64, error) {
	var total int64
	err := s.read(oid, latestEpoch, func(at resolved) error {
		w, err := s.recordOf(oid, at)
		if err != nil {
			return err
		}
		total = int64(len(w.r.buf))
		for _, b := range at.v.blobs {
			n, err := s.st.Blobs().Size(b)
			if err != nil {
				return err
			}
			total += n
		}
		return nil
	})
	return total, err
}

// resolved is the version of an object a read resolved at an epoch, with
// its class; when it is the newest version (head), ext is its extent,
// from the row.
type resolved struct {
	sch  *schema
	v    version
	head bool
	ext  sptemp.Extent
}

// resolve returns the version an OID maps to at an epoch (latestEpoch =
// newest). The version's blob ids are shared: nothing writes a version's
// list once it is published.
func (s *Store) resolve(oid OID, epoch uint64) (resolved, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.rowOf(oid)
	if !ok {
		return resolved{}, false
	}
	v, head, ok := s.visibleAt(&r, epoch)
	at := resolved{sch: s.byNum[r.class], v: v, head: head}
	if ok && head {
		at.ext = s.extOf(&r)
	}
	return at, ok
}

// errMoved reports a record slot that no longer holds the version a read
// resolved to it.
var errMoved = errors.New("object: record slot holds another version")

// read hands the version of oid visible at epoch to use, which reads what
// it needs of it — its record (recordOf), its blobs — after mu is
// released. By then a commit may have reclaimed that version (a reader
// holding no pin holds nothing back) and a later insert reused its slot,
// so a record is accepted only when its header names the version
// resolved. A mismatch, a missing record or a missing blob resolves
// again, and the read answers for what the chain holds now. A commit
// unlinks what it reclaims before it releases commitMu: when resolution
// still names the version that failed with no commit in flight, the
// failure is the store's and is returned.
func (s *Store) read(oid OID, epoch uint64, use func(at resolved) error) error {
	var err error
	var failed uint64 // the epoch of the version use failed on
	for {
		at, ok := s.resolve(oid, epoch)
		if err != nil && ok && at.v.epoch == failed {
			s.commitMu.Lock()
			at, ok = s.resolve(oid, epoch)
			s.commitMu.Unlock()
			if ok && at.v.epoch == failed {
				return err
			}
		}
		if !ok {
			return fmt.Errorf("%w: oid %d", ErrNotFound, oid)
		}
		if s.resolved != nil {
			s.resolved(oid)
		}
		err = use(at)
		if err == nil || !errors.Is(err, errMoved) && !errors.Is(err, storage.ErrNotFound) && !errors.Is(err, storage.ErrBlobNotFound) {
			return err
		}
		failed = at.v.epoch
	}
}

// recordOf reads and parses the record of a resolved version: errMoved
// when its slot holds another record by now.
func (s *Store) recordOf(oid OID, at resolved) (record, error) {
	rec, err := s.st.Get(at.sch.heap, at.v.rid)
	if err != nil {
		return record{}, err
	}
	w, err := parseRecord(rec, at.sch)
	if err != nil {
		return w, fmt.Errorf("object: oid %d: %w", oid, err)
	}
	if w.oid != oid || w.epoch != at.v.epoch {
		return w, fmt.Errorf("%w: oid %d at %s", errMoved, oid, at.v.rid)
	}
	return w, nil
}

// extentAt returns the extent of the version of an object visible at an
// epoch; ok is false when there is none. The newest version's extent is on
// the row; only an older one is read back from its record, and one a
// commit reclaimed meanwhile (the caller held no pin) reads as not
// visible.
func (s *Store) extentAt(oid OID, epoch uint64) (ext sptemp.Extent, ok bool, err error) {
	err = s.read(oid, epoch, func(at resolved) error {
		if at.head {
			ext = at.ext
			return nil
		}
		w, err := s.recordOf(oid, at)
		if err == nil && w.del {
			err = errTombstone
		}
		ext = w.ext
		return err
	})
	if errors.Is(err, ErrNotFound) {
		return ext, false, nil
	}
	return ext, err == nil, err
}

const latestEpoch = ^uint64(0)

// Extent returns the extent of an object's newest version without reading
// its record or its images: ErrNotFound when it has none.
func (s *Store) Extent(oid OID) (sptemp.Extent, error) {
	ext, ok, err := s.extentAt(oid, latestEpoch)
	if err == nil && !ok {
		err = fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	return ext, err
}

// Get loads an object's newest version by OID, materialising blob-stored
// images.
func (s *Store) Get(oid OID) (*Object, error) { return s.getAt(oid, latestEpoch) }

// GetAt loads the version of an object a snapshot pinned at epoch sees.
// Objects born after the epoch — or deleted at or before it — are not
// found.
func (s *Store) GetAt(oid OID, epoch uint64) (*Object, error) { return s.getAt(oid, epoch) }

func (s *Store) getAt(oid OID, epoch uint64) (*Object, error) {
	var obj *Object
	err := s.read(oid, epoch, func(at resolved) error {
		w, err := s.recordOf(oid, at)
		if err != nil {
			return err
		}
		if obj, err = w.object(); err != nil {
			return err
		}
		return resolveImages(obj, s.st.Blobs().Get)
	})
	if err != nil {
		return nil, err
	}
	return obj, nil
}

// resolveImages replaces the blobRef placeholders of a decoded object
// with the images fetch finds under their ids.
func resolveImages(obj *Object, fetch func(storage.BlobID) ([]byte, error)) error {
	for name, val := range obj.Attrs {
		ref, ok := val.(blobRef)
		if !ok {
			continue
		}
		data, err := fetch(ref.id)
		if err != nil {
			return fmt.Errorf("object: oid %d attribute %q: %w", obj.OID, name, err)
		}
		img, err := raster.Unmarshal(data)
		if err != nil {
			return fmt.Errorf("object: oid %d attribute %q: %w", obj.OID, name, err)
		}
		obj.Attrs[name] = value.Image{Img: img}
	}
	return nil
}

// Delete commits a tombstone for an object at a fresh epoch: it vanishes
// from the newest-version indexes immediately, while pinned snapshots
// keep seeing the pre-delete state until they release and GC runs.
func (s *Store) Delete(oid OID) error {
	if !s.Exists(oid) {
		return fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	_, err := s.ApplyBatch(BatchOps{Deletes: []OID{oid}})
	if errors.Is(err, ErrConflict) && !s.Exists(oid) {
		// Lost a delete-delete race: the object is gone either way.
		return fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	return err
}

// Count returns the number of live objects of a class at the newest epoch.
func (s *Store) Count(class string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ci := s.classes[class]; ci != nil {
		return len(ci.members)
	}
	return 0
}

// CurrentEpoch returns the latest published commit epoch: the read epoch
// a new session or snapshot captures.
func (s *Store) CurrentEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Pin pins the current epoch against GC and returns it. Every Pin (or
// successful PinEpoch) must be paired with an Unpin; until then, GC keeps
// every version visible at or after the pinned epoch.
func (s *Store) Pin() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[s.epoch]++
	return s.epoch
}

// PinEpoch re-pins a specific epoch (a resumed stream cursor). It fails
// with ErrSnapshotGone when the epoch has fallen behind the GC horizon —
// the versions it would need may already be reclaimed.
func (s *Store) PinEpoch(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkEpochLocked(epoch); err != nil {
		return err
	}
	s.pins[epoch]++
	return nil
}

// CheckEpoch reports whether an epoch could be pinned right now, without
// pinning it (streams validate cursors at creation but pin lazily at
// first pull, so an abandoned, never-iterated stream holds no pin).
func (s *Store) CheckEpoch(epoch uint64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkEpochLocked(epoch)
}

func (s *Store) checkEpochLocked(epoch uint64) error {
	if floor := s.gcFloor.Load(); epoch < floor {
		return fmt.Errorf("%w: epoch %d is below the GC horizon %d", ErrSnapshotGone, epoch, floor)
	}
	if epoch > s.epoch {
		return fmt.Errorf("%w: epoch %d is in the future (current %d)", ErrSnapshotGone, epoch, s.epoch)
	}
	return nil
}

// Unpin releases a pinned epoch, advancing the horizon the next commit
// (or GC) may reclaim up to.
func (s *Store) Unpin(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.pins[epoch]; ok {
		if n <= 1 {
			delete(s.pins, epoch)
		} else {
			s.pins[epoch] = n - 1
		}
	}
}

// Lease protects a pinned epoch from reclamation until the given time, as
// a pin that needs no Unpin: it lapses. A stream that stops with a resume
// cursor leases its epoch before it unpins, so that the cursor resumes
// the same snapshot across the commits that come meanwhile, and a caller
// that abandons the cursor holds the horizon back only until then. The
// caller holds a pin on epoch; a later lease of it extends the time.
func (s *Store) Lease(epoch uint64, until time.Time) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for e, t := range s.leases {
		if !now.Before(t) {
			delete(s.leases, e)
		}
	}
	if until.After(s.leases[epoch]) {
		s.leases[epoch] = until
	}
}

// RegisterMetrics folds version-store health into the registry: the
// published epoch, stored versions, pins and the GC horizon as gauges,
// GC activity as counters/latency, and the candidates the extent queries
// examined. The gauges read under the store's shared lock; only
// mvcc_live_versions walks anything (the chains with older versions), and
// only when a snapshot is taken.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.gcRuns = reg.Counter("mvcc_gc_runs_total")
	s.gcNS = reg.Histogram("mvcc_gc_ns")
	s.examined = reg.Counter("object_candidates_examined_total")
	reg.GaugeFunc("mvcc_epoch", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return int64(s.epoch)
	})
	reg.GaugeFunc("mvcc_reclaimed_total", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.reclaimed
	})
	reg.GaugeFunc("mvcc_pins", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var n int64
		for _, c := range s.pins {
			n += int64(c)
		}
		return n
	})
	reg.GaugeFunc("mvcc_oldest_pin", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var oldest uint64
		for e := range s.pins {
			if oldest == 0 || e < oldest {
				oldest = e
			}
		}
		return int64(oldest)
	})
	reg.GaugeFunc("mvcc_gc_floor", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return int64(s.gcFloor.Load())
	})
	reg.GaugeFunc("mvcc_live_versions", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return int64(s.liveVersionsLocked())
	})
}

// liveVersionsLocked counts stored versions: one per row, and the older
// ones beside them. Callers hold mu.
func (s *Store) liveVersionsLocked() int {
	n := s.rows.Len()
	for _, vers := range s.older {
		n += len(vers)
	}
	return n
}

// MVCC reports version-store health.
func (s *Store) MVCC() MVCCStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := MVCCStats{Epoch: s.epoch, Reclaimed: s.reclaimed, GCFloor: s.gcFloor.Load(), LiveVersions: s.liveVersionsLocked()}
	for e, n := range s.pins {
		st.Pins += n
		if st.OldestPin == 0 || e < st.OldestPin {
			st.OldestPin = e
		}
	}
	return st
}

// Query returns the OIDs of class objects whose newest extent matches the
// predicate, ascending. An empty predicate space matches everything.
func (s *Store) Query(class string, pred sptemp.Extent) ([]OID, error) {
	return s.QueryAt(class, pred, latestEpoch)
}

// QueryAt answers the extent query against the snapshot at epoch: the
// candidate set is the newest-version index union the overlay of objects
// changed after the epoch, and each candidate resolves through its chain
// so the verified extent is the one the snapshot sees.
func (s *Store) QueryAt(class string, pred sptemp.Extent, epoch uint64) ([]OID, error) {
	if !s.cat.Exists(class) {
		return nil, fmt.Errorf("%w: class %q", catalog.ErrClassNotFound, class)
	}
	candidates := s.candidatesAt(class, pred, epoch)
	s.examined.Add(int64(len(candidates)))
	var out []OID
	for _, oid := range candidates {
		ext, ok, err := s.extentAt(oid, epoch)
		if err != nil {
			return nil, err
		}
		if ok && ext.Matches(pred) {
			out = append(out, oid)
		}
	}
	return out, nil
}

// candidatesAt collects the candidate OIDs for a predicate at an epoch:
// the newest-version index matches, plus — for snapshot reads — every
// object of the class changed after the epoch (its snapshot extent may
// differ from the indexed one, or it may have been deleted since). The
// result is ascending, each OID once, and the caller's own.
func (s *Store) candidatesAt(class string, pred sptemp.Extent, epoch uint64) []OID {
	s.mu.RLock()
	ci := s.classes[class]
	if ci == nil {
		s.mu.RUnlock()
		return nil
	}
	var candidates []OID
	switch {
	case !pred.Space.IsEmpty():
		candidates = oidsOf(ci.grid.Search(pred.Space))
	case pred.HasTime:
		candidates = oidsOf(ci.times.Search(pred.TimeIv))
	default:
		candidates = slices.Clone(ci.members)
	}
	// The indexes answer in ascending order; only the overlay can break it.
	indexed := len(candidates)
	if epoch != latestEpoch {
		i := sort.Search(len(ci.changed), func(i int) bool { return ci.changed[i].epoch > epoch })
		for _, e := range ci.changed[i:] {
			candidates = append(candidates, e.oid)
		}
	}
	s.mu.RUnlock()
	if len(candidates) > indexed {
		slices.Sort(candidates)
		candidates = slices.Compact(candidates)
	}
	s.examined.Add(int64(len(candidates)))
	return candidates
}

func oidsOf(ids []uint64) []OID {
	out := make([]OID, len(ids))
	for i, id := range ids {
		out[i] = OID(id)
	}
	return out
}

// candMemo is a small fixed set of recently collected candidate slices,
// newest replacing oldest. The slices are shared between walks and never
// written after they enter.
type candMemo struct {
	mu   sync.Mutex
	ents [8]candEnt
	next int
}

type candKey struct {
	class string
	pred  sptemp.Extent
	epoch uint64
}

type candEnt struct {
	key   candKey
	cands []OID
}

// get returns the slice remembered under k, nil when there is none (an
// empty candidate set is not worth remembering).
func (m *candMemo) get(k candKey) []OID {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.ents {
		if m.ents[i].key == k {
			return m.ents[i].cands
		}
	}
	return nil
}

func (m *candMemo) put(k candKey, cands []OID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ents[m.next] = candEnt{key: k, cands: cands}
	m.next = (m.next + 1) % len(m.ents)
}

// walkCandidates is candidatesAt for a walk that comes back page after
// page: the set collected for (class, predicate, epoch) is remembered, so
// that a page costs what it examines rather than a search of the whole
// predicate. The result is shared and must not be written.
//
// Why a remembered set stays right for as long as its epoch is readable.
// Say it was collected at time T for epoch e, with e published and not
// behind the GC horizon. An object in e's answer either has not changed
// since e — then its newest version is the one e sees, it matches, and the
// newest-version index held it at T — or changed after e and by T — then
// the overlay held it at T, GC having pruned nothing above e — or changes
// only after T, in which case it was still unchanged at T and the first
// case applies. So the set covers e's answer at every later time, and the
// per-candidate check through the chain, which is never remembered, keeps
// the answer exact. The horizon only moves forward, so an epoch readable
// now was readable at T; an unreadable one, or the moving "newest" of an
// unpinned read, is collected afresh and not remembered.
func (s *Store) walkCandidates(class string, pred sptemp.Extent, epoch uint64) []OID {
	if epoch == latestEpoch || s.CheckEpoch(epoch) != nil {
		return s.candidatesAt(class, pred, epoch)
	}
	key := candKey{class: class, pred: pred, epoch: epoch}
	if cands := s.memo.get(key); cands != nil {
		return cands
	}
	cands := s.candidatesAt(class, pred, epoch)
	s.memo.put(key, cands)
	return cands
}

// blobRef is the placeholder value stored inline for offloaded images.
type blobRef struct{ id storage.BlobID }

func (blobRef) Type() value.Type { return value.TypeImage }
func (r blobRef) String() string { return fmt.Sprintf("(image blob %d)", r.id) }
