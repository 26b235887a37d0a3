// Package object manages scientific data objects — the instances of
// non-primitive classes (§2.1.2). Every object carries an OID, its class
// name, attribute values, and its spatio-temporal extent. Objects persist
// in the storage engine, one heap per class, as records relative to that
// class (record.go has both record forms and the one walker over them;
// no other package knows the layout); large image payloads are offloaded
// to the blob store (the paper's image ADT likewise stores a filepath,
// not inline pixels). Per-class grid and interval indexes serve the
// extent-qualified retrieval that is step 1 of the §2.1.5 query sequence;
// the extents they index live on the version chains, the one per-object
// map the store keeps.
//
// The store is multi-versioned: every commit happens at a monotonically
// increasing epoch (reserved from the storage layer and stamped into the
// WAL group), and updates and deletes append new versions to a per-OID
// chain instead of mutating in place. The extent indexes always describe
// the newest version; the chains resolve visibility for snapshot readers
// pinned at an earlier epoch, so reads never block writes and a pinned
// reader sees exactly the state of its epoch. Superseded versions stay
// reachable until GC drops everything below the oldest pinned epoch.
package object

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"gaea/internal/catalog"
	"gaea/internal/obs"
	"gaea/internal/raster"
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

// chain is an object's version history in ascending epoch order — the
// newest version is the LAST element, so committing a new version is an
// amortised O(1) append however long the history grows between GCs. A
// tombstone, when present, is always the newest: OIDs are never reused,
// so nothing commits after a delete.
//
// ext is the extent of the newest live version: what the class's extent
// indexes describe (they keep ids only and are told the extent to remove),
// and what an extent check of that version reads instead of its record.
// Nothing reads it under a tombstone.
type chain struct {
	sch  *schema
	vers []version
	ext  sptemp.Extent
}

// head returns the newest version.
func (c *chain) head() version { return c.vers[len(c.vers)-1] }

// visibleAt resolves the version a snapshot pinned at epoch sees: the
// newest version at or below it (latestEpoch, the largest epoch there is,
// sees the head). ok is false when the object does not exist at that
// epoch (born later, or deleted at or before it); isHead tells whether
// the version is the newest, whose extent is c.ext.
func (c *chain) visibleAt(epoch uint64) (v version, isHead, ok bool) {
	for i := len(c.vers) - 1; i >= 0; i-- {
		if v := c.vers[i]; v.epoch <= epoch {
			return v, i == len(c.vers)-1, !v.del
		}
	}
	return version{}, false, false
}

// changeEnt records that an object of a class changed (update or delete)
// at an epoch. Snapshot queries union these with the newest-version index
// candidates: anything the index no longer describes for a given snapshot
// is in here, and GC prunes entries at or below the horizon.
type changeEnt struct {
	epoch uint64
	oid   OID
}

// classIndex is what the store keeps per class beside the chains: the
// extent indexes and sorted membership over the NEWEST live versions,
// rebuilt at open, and the overlay log snapshot readers add to them. The
// indexes hold OIDs only; each member's extent is its chain's ext.
type classIndex struct {
	grid    *sptemp.GridIndex
	times   sptemp.IntervalIndex
	members []OID
	// changed is (epoch, oid) per update or delete, ascending by epoch,
	// pruned by GC.
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
	// GCFloor is the epoch the last GC ran at: cursors and snapshots
	// below it cannot be re-pinned.
	GCFloor uint64
}

// Store persists objects and serves extent queries.
//
// Locking: mu guards the in-memory maps (chains, classes, pins, epoch);
// readers hold it shared and briefly — never across storage I/O.
// commitMu serialises mutators (ApplyBatch, GC) across their whole
// validate → reserve-epoch → storage-commit → publish window, so epochs
// publish in reservation order; mu is taken exclusively only for the
// final in-memory publish, which is why snapshot readers are not
// serialised behind a committing writer.
type Store struct {
	mu       sync.RWMutex
	commitMu sync.Mutex
	st       *storage.Store
	cat      *catalog.Catalog
	// schemas caches each class's *schema by class name (see record.go).
	schemas sync.Map
	// chains holds every OID's version history, including OIDs whose
	// newest version is a tombstone (still visible to pinned snapshots),
	// and with it the newest extent: the only per-object map in the store.
	chains map[OID]*chain
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
	// pins refcounts snapshot epochs protected from GC.
	pins map[uint64]int
	// gcFloor is the horizon of the last GC pass.
	gcFloor   uint64
	reclaimed int64

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
// superseded versions persist until the next GC. The scan reads record
// headers and blob references only: no attribute value is decoded. Blobs
// no version refers to are dropped from the blob store.
func Open(st *storage.Store, cat *catalog.Catalog) (*Store, error) {
	s := &Store{
		st:        st,
		cat:       cat,
		chains:    make(map[OID]*chain),
		classes:   make(map[string]*classIndex),
		pins:      make(map[uint64]int),
		prepLocks: make(map[OID]uint64),
	}
	var maxEpoch uint64
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
			c := s.chains[w.oid]
			if c == nil {
				c = &chain{sch: sch}
				s.chains[w.oid] = c
			}
			// Heap order is not epoch order. Keep the newest version seen
			// so far last, so that its extent is at hand whenever a newer
			// one arrives and indexing below needs no second pass over
			// storage; the rest is sorted once the scan is done.
			n := len(c.vers)
			c.vers = append(c.vers, version{epoch: w.epoch, rid: rid, blobs: blobIDs, del: w.del})
			switch {
			case n > 0 && w.epoch < c.vers[n-1].epoch:
				c.vers[n-1], c.vers[n] = c.vers[n], c.vers[n-1]
			case !w.del:
				c.ext = w.ext
			}
			if w.epoch > maxEpoch {
				maxEpoch = w.epoch
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if scanErr != nil {
			return nil, scanErr
		}
	}
	// Index in ascending OID order, so each class's sorted membership and
	// posting lists grow by appends: map order would insert every OID at a
	// random position, a memmove of half the members each.
	oids := make([]OID, 0, len(s.chains))
	for oid := range s.chains {
		oids = append(oids, oid)
	}
	slices.Sort(oids)
	referenced := make(map[storage.BlobID]bool)
	for _, oid := range oids {
		c := s.chains[oid]
		if len(c.vers) > 1 {
			slices.SortStableFunc(c.vers, func(a, b version) int { return cmp.Compare(a.epoch, b.epoch) })
		}
		if !c.head().del {
			s.indexLocked(c, oid)
		}
		for _, v := range c.vers {
			for _, b := range v.blobs {
				referenced[b] = true
			}
		}
	}
	// A blob no version refers to was put for a batch that never committed,
	// or its delete was lost in a crash: the next checkpoint drops it.
	st.Blobs().Retain(referenced)
	if maxEpoch == 0 {
		// Floor the epoch at 1 so a session's read epoch is never 0 —
		// BatchOps.ReadEpoch uses 0 as the "skip validation" sentinel, and
		// a legacy store whose records all decode at epoch 0 must still
		// get first-committer-wins checks.
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
	s.gcFloor = s.epoch
	return s, nil
}

// headBox is the extent indexes' lookup: the box of an indexed object's
// newest version. Callers hold mu.
func (s *Store) headBox(id uint64) sptemp.Box { return s.chains[OID(id)].ext.Space }

// indexLocked enters an object, by the extent on its chain, into its
// class's newest-version indexes and membership.
func (s *Store) indexLocked(c *chain, oid OID) {
	class := c.sch.cls.Name
	ci := s.classes[class]
	if ci == nil {
		ci = &classIndex{grid: sptemp.NewGridIndex(spatialCellFor(c.ext.Space), s.headBox)}
		s.classes[class] = ci
	}
	ci.grid.Insert(uint64(oid), c.ext.Space)
	if c.ext.HasTime {
		ci.times.Insert(uint64(oid), c.ext.TimeIv)
	}
	if n := len(ci.members); n == 0 || ci.members[n-1] < oid {
		ci.members = append(ci.members, oid)
	} else if i, found := slices.BinarySearch(ci.members, oid); !found {
		ci.members = slices.Insert(ci.members, i, oid)
	}
}

// unindexLocked removes an object, still carrying the extent it was
// indexed by, from the newest-version indexes (its chain — and so its
// visibility to pinned snapshots — is untouched).
func (s *Store) unindexLocked(c *chain, oid OID) {
	ci := s.classes[c.sch.cls.Name]
	ci.grid.Delete(uint64(oid), c.ext.Space)
	if c.ext.HasTime {
		ci.times.Delete(uint64(oid), c.ext.TimeIv)
	}
	if i, found := slices.BinarySearch(ci.members, oid); found {
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

func (s *Store) validate(cls *catalog.Class, obj *Object) error {
	for name, v := range obj.Attrs {
		a, ok := cls.Attr(name)
		if !ok {
			return fmt.Errorf("%w: class %s has no attribute %q", ErrBadAttr, cls.Name, name)
		}
		if v == nil {
			return fmt.Errorf("%w: attribute %q is nil", ErrBadAttr, name)
		}
		if v.Type() != a.Type {
			// A singleton scalar satisfies a set-typed attribute.
			if elem, isSet := a.Type.IsSet(); !isSet || v.Type() != elem {
				return fmt.Errorf("%w: attribute %q is %s, schema says %s", ErrBadAttr, name, v.Type(), a.Type)
			}
		}
	}
	for _, a := range cls.Attrs {
		if _, ok := obj.Attrs[a.Name]; !ok {
			return fmt.Errorf("%w: attribute %q missing", ErrBadAttr, a.Name)
		}
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

// Update commits a new version of an existing object (same OID, same
// class) at a fresh epoch. The superseded version stays reachable for
// pinned snapshots until GC. Update does not touch derivation metadata —
// the kernel's session commit wraps it with staleness propagation.
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
	c, ok := s.chains[oid]
	return ok && !c.head().del
}

// ExistsAt reports whether an OID resolves to a live object at the given
// epoch.
func (s *Store) ExistsAt(oid OID, epoch uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.chains[oid]
	if !ok {
		return false
	}
	_, _, ok = c.visibleAt(epoch)
	return ok
}

// RecordSize returns the stored footprint of an object in bytes: its
// newest heap record plus any offloaded blobs. The derived-data manager
// weighs this against recorded recomputation cost when deciding whether
// to keep or drop an invalidated derived object.
func (s *Store) RecordSize(oid OID) (int64, error) {
	s.mu.RLock()
	c, ok := s.chains[oid]
	var v version
	if ok && !c.head().del {
		v = c.head()
	} else {
		ok = false
	}
	heap := ""
	if ok {
		heap = c.sch.heap
	}
	blobIDs := append([]storage.BlobID(nil), v.blobs...)
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	rec, err := s.st.Get(heap, v.rid)
	if err != nil {
		return 0, err
	}
	total := int64(len(rec))
	for _, b := range blobIDs {
		n, err := s.st.Blobs().Size(b)
		if err != nil {
			if errors.Is(err, storage.ErrBlobNotFound) {
				continue
			}
			return 0, err
		}
		total += n
	}
	return total, nil
}

// resolve returns the class schema and version an OID maps to at an epoch
// (latestEpoch = newest).
func (s *Store) resolve(oid OID, epoch uint64) (*schema, version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.chains[oid]
	if !ok {
		return nil, version{}, false
	}
	v, _, ok := c.visibleAt(epoch)
	return c.sch, v, ok
}

// extentAt returns the extent of the version of an object visible at an
// epoch; ok is false when there is none. The newest version's extent is on
// the chain; only an older one is read back from its record, and a record
// GC took meanwhile (the caller held no pin) reads as not visible.
func (s *Store) extentAt(oid OID, epoch uint64) (ext sptemp.Extent, ok bool, err error) {
	s.mu.RLock()
	c, found := s.chains[oid]
	if !found {
		s.mu.RUnlock()
		return ext, false, nil
	}
	v, isHead, ok := c.visibleAt(epoch)
	ext = c.ext
	s.mu.RUnlock()
	if !ok || isHead {
		return ext, ok, nil
	}
	rec, err := s.st.Get(c.sch.heap, v.rid)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			err = nil
		}
		return ext, false, err
	}
	ext, err = recordExtent(rec, c.sch)
	return ext, err == nil, err
}

const latestEpoch = ^uint64(0)

// Get loads an object's newest version by OID, materialising blob-stored
// images.
func (s *Store) Get(oid OID) (*Object, error) { return s.getAt(oid, latestEpoch) }

// GetAt loads the version of an object a snapshot pinned at epoch sees.
// Objects born after the epoch — or deleted at or before it — are not
// found.
func (s *Store) GetAt(oid OID, epoch uint64) (*Object, error) { return s.getAt(oid, epoch) }

func (s *Store) getAt(oid OID, epoch uint64) (*Object, error) {
	sch, v, ok := s.resolve(oid, epoch)
	if !ok {
		return nil, fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	rec, err := s.st.Get(sch.heap, v.rid)
	if err != nil {
		return nil, err
	}
	w, err := parseRecord(rec, sch)
	if err != nil {
		return nil, err
	}
	obj, err := w.object()
	if err != nil {
		return nil, err
	}
	return obj, resolveImages(obj, s.st.Blobs().Get)
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

// Members returns all live OIDs of a class at the newest epoch, ascending.
func (s *Store) Members(class string) []OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ci := s.classes[class]; ci != nil {
		return slices.Clone(ci.members)
	}
	return nil
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
	if epoch < s.gcFloor {
		return fmt.Errorf("%w: epoch %d is below the GC horizon %d", ErrSnapshotGone, epoch, s.gcFloor)
	}
	if epoch > s.epoch {
		return fmt.Errorf("%w: epoch %d is in the future (current %d)", ErrSnapshotGone, epoch, s.epoch)
	}
	return nil
}

// Unpin releases a pinned epoch, advancing the horizon the next GC may
// reclaim up to.
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

// RegisterMetrics folds version-store health into the registry: the
// published epoch, stored versions, pins and the GC horizon as gauges,
// GC activity as counters/latency, and the candidates the extent queries
// examined. The cheap gauges read under the store's shared lock without
// walking chains; only mvcc_live_versions pays the chain walk, and only
// when a snapshot is taken.
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
		return int64(s.gcFloor)
	})
	reg.GaugeFunc("mvcc_live_versions", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var n int64
		for _, c := range s.chains {
			n += int64(len(c.vers))
		}
		return n
	})
}

// MVCC reports version-store health.
func (s *Store) MVCC() MVCCStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := MVCCStats{Epoch: s.epoch, Reclaimed: s.reclaimed, GCFloor: s.gcFloor}
	for _, c := range s.chains {
		st.LiveVersions += len(c.vers)
	}
	for e, n := range s.pins {
		st.Pins += n
		if st.OldestPin == 0 || e < st.OldestPin {
			st.OldestPin = e
		}
	}
	return st
}

// GC reclaims every version no live snapshot can see: versions superseded
// at or below the oldest pinned epoch (or the current epoch when nothing
// is pinned), and chains whose visible state at the horizon is a
// tombstone. Heap records are removed in one batch and orphaned blobs
// deleted. Returns the number of versions reclaimed. The kernel wires GC
// into Checkpoint so the horizon advances whenever the log is compacted.
func (s *Store) GC() (int, error) {
	gcStart := time.Now()
	defer func() {
		s.gcRuns.Inc()
		s.gcNS.ObserveSince(gcStart)
	}()
	type victim struct {
		heap  string
		rid   storage.RID
		blobs []storage.BlobID
	}
	var victims []victim
	// commitMu keeps GC from interleaving with a commit's validate →
	// publish window (a chain it trims is one a commit may hold a pointer
	// to); the reader-visible lock is still held only for the in-memory
	// collection phase.
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	horizon := s.epoch
	for e := range s.pins {
		if e < horizon {
			horizon = e
		}
	}
	for oid, c := range s.chains {
		// vis is the newest version at or below the horizon — the one a
		// snapshot pinned exactly there resolves to. Everything older is
		// unreachable from any present or future pin.
		vis := -1
		for i := len(c.vers) - 1; i >= 0; i-- {
			if c.vers[i].epoch <= horizon {
				vis = i
				break
			}
		}
		if vis < 0 {
			continue // every version is newer than the horizon
		}
		for _, v := range c.vers[:vis] {
			victims = append(victims, victim{heap: c.sch.heap, rid: v.rid, blobs: v.blobs})
		}
		if vis == len(c.vers)-1 && c.vers[vis].del {
			// The chain's only reachable state is "deleted": drop it whole.
			victims = append(victims, victim{heap: c.sch.heap, rid: c.vers[vis].rid, blobs: c.vers[vis].blobs})
			delete(s.chains, oid)
			continue
		}
		if vis > 0 {
			// Re-slice to release the reclaimed prefix's backing memory.
			c.vers = append([]version(nil), c.vers[vis:]...)
		}
	}
	for _, ci := range s.classes {
		i := sort.Search(len(ci.changed), func(i int) bool { return ci.changed[i].epoch > horizon })
		if i == len(ci.changed) {
			ci.changed = nil
		} else if i > 0 {
			// Copy to release the pruned prefix's backing memory.
			ci.changed = slices.Clone(ci.changed[i:])
		}
	}
	if horizon > s.gcFloor {
		s.gcFloor = horizon
	}
	s.mu.Unlock()

	if len(victims) == 0 {
		return 0, nil
	}
	// The chains no longer reference the victims, so the physical
	// removal happens outside the lock: one batch for the heap records,
	// then best-effort blob deletion. If the batch fails, the orphaned
	// records survive on disk until the next Open rescans them back into
	// their chains (as superseded versions) and a later GC retries; the
	// reclaimed counter only advances on success.
	b := s.st.NewBatch()
	for _, v := range victims {
		b.Delete(v.heap, v.rid)
	}
	if _, err := b.Commit(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.reclaimed += int64(len(victims))
	s.mu.Unlock()
	for _, v := range victims {
		for _, bl := range v.blobs {
			if err := s.st.Blobs().Delete(bl); err != nil && !errors.Is(err, storage.ErrBlobNotFound) {
				return len(victims), err
			}
		}
	}
	return len(victims), nil
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

// NearestInTime returns up to k class members closest in time to t,
// used by temporal interpolation to find bracketing observations.
func (s *Store) NearestInTime(class string, t sptemp.AbsTime, k int) []OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ci := s.classes[class]
	if ci == nil {
		return nil
	}
	return oidsOf(ci.times.Nearest(t, k))
}

// blobRef is the placeholder value stored inline for offloaded images.
type blobRef struct{ id storage.BlobID }

func (blobRef) Type() value.Type { return value.TypeImage }
func (r blobRef) String() string { return fmt.Sprintf("(image blob %d)", r.id) }
