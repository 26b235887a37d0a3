package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gaea/internal/obs"
)

// Store is the embedded database: named heaps + meta key/value map +
// sequences, durable through one WAL, and a blob store with its own log.
// Directory layout:
//
//	<dir>/heap_<name>.db      slotted-page heap files
//	<dir>/wal.log             redo log
//	<dir>/meta.db             meta snapshot (rewritten at checkpoint),
//	                          its header the directory's format number
//	<dir>/blobs/NNNNNNNN.seg  blob log segments (compacted at checkpoint)
//
// Locking: mu is a reader/writer lock whose EXCLUSIVE side belongs to
// checkpoints (and close): everything that mutates pages or appends to
// the WAL holds it SHARED for the whole plan + log-append + apply
// window, so a checkpoint can never flush and truncate in the middle of
// an operation, while readers, writers, and whole batch commits all
// proceed in parallel — real exclusion lives in pageMu, the per-heap
// locks, the WAL's internal mutex, and metaMu. pageMu keeps commits that
// change pages apart from plan to apply, so no page moves under a plan.
// metaMu serialises every meta-map log+apply pair (and read), so
// concurrent shared-lock holders keep the map race-free and the WAL
// order of meta values matches memory order.
type Store struct {
	mu     sync.RWMutex
	pageMu sync.Mutex
	metaMu sync.Mutex
	// broken is the error of a logged group that could not be applied,
	// set under pageMu; nothing that changes a page runs after it.
	broken error
	dir    string
	opts   Options
	heaps  map[string]*Heap
	meta   map[string][]byte
	// seqs maps a sequence's name to its counter, under metaMu like the
	// map. A sequence's value is its counter's: its meta value is the
	// one it was opened or last set with, and the snapshot, a pin and
	// MetaGet read the counter instead.
	seqs  map[string]*Sequence
	wal   *wal
	blobs *BlobStore
	// epoch is the MVCC commit-epoch counter: every Batch.Commit stamps
	// its WAL group with a reserved epoch, and the latest committed value
	// is mirrored in the meta map (so the meta snapshot persists it) and
	// restored from WAL group headers on recovery.
	epoch atomic.Uint64
	// Registry instruments (orphans when Options.Metrics was nil).
	checkpoints  *obs.Counter
	checkpointNS *obs.Histogram
}

// epochKey is the meta key mirroring the commit-epoch counter.
const epochKey = "mvcc/epoch"

// seqPrefix starts the meta key of a sequence's counter.
const seqPrefix = "seq/"

// Options tunes a Store.
type Options struct {
	// PoolFrames is the buffer-pool capacity per heap (default 64).
	PoolFrames int
	// NoSync disables per-append fsync of the WAL and the fsync after
	// each blob append. Faster, loses the last writes on a crash; tests
	// and benchmarks use it.
	NoSync bool
	// Metrics is the registry the store reports into (nil = unobserved):
	// WAL growth/appends/fsyncs, buffer-pool hits/misses across heaps,
	// and checkpoint count/latency.
	Metrics *obs.Registry
}

// ErrFormat is returned by Open for a directory that holds data in any
// format but formatVersion. There is no migration path.
var ErrFormat = errors.New("storage: unsupported directory format")

// Open opens (or creates) a store in dir and recovers any logged-but-
// unflushed state from the WAL. A directory of another format is
// refused with ErrFormat before anything in it is written.
func Open(dir string, opts Options) (*Store, error) {
	if opts.PoolFrames == 0 {
		opts.PoolFrames = 64
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		heaps: make(map[string]*Heap),
		meta:  make(map[string][]byte),
		seqs:  make(map[string]*Sequence),
	}
	if err := s.loadMetaSnapshot(); err != nil {
		return nil, err
	}
	var err error
	if s.blobs, err = openBlobStore(filepath.Join(dir, "blobs"), opts.NoSync); err != nil {
		return nil, err
	}
	// Open heaps that already exist on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "heap_") && strings.HasSuffix(name, ".db") {
			hn := strings.TrimSuffix(strings.TrimPrefix(name, "heap_"), ".db")
			h, err := openHeap(filepath.Join(dir, name), hn, opts.PoolFrames)
			if err != nil {
				s.closeFiles()
				return nil, err
			}
			s.heaps[hn] = h
		}
	}
	// Recover: replay the WAL, then checkpoint so the log starts clean.
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if v, ok := s.meta[epochKey]; ok && len(v) == 8 {
		s.epoch.Store(binary.LittleEndian.Uint64(v))
	}
	s.wal, err = openWAL(filepath.Join(dir, "wal.log"), !opts.NoSync)
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	s.registerMetrics(opts.Metrics)
	return s, nil
}

// registerMetrics folds the store's counters into the registry: the
// WAL's growth and activity, checkpoint work, and the buffer pools'
// hit/miss totals summed across heaps (the pool counters are atomics,
// so a snapshot never touches the pool locks).
func (s *Store) registerMetrics(reg *obs.Registry) {
	s.checkpoints = reg.Counter("storage_checkpoints_total")
	s.checkpointNS = reg.Histogram("storage_checkpoint_ns")
	if reg == nil {
		return
	}
	reg.GaugeFunc("storage_wal_bytes", s.WALBytes)
	reg.GaugeFunc("storage_wal_appends_total", s.wal.appends.Load)
	reg.GaugeFunc("storage_wal_syncs_total", s.wal.syncs.Load)
	reg.GaugeFunc("storage_buffer_hits_total", func() int64 {
		h, _ := s.BufferStats()
		return int64(h)
	})
	reg.GaugeFunc("storage_buffer_misses_total", func() int64 {
		_, m := s.BufferStats()
		return int64(m)
	})
}

// BufferStats sums buffer-pool hits and misses across all heaps.
func (s *Store) BufferStats() (hits, misses uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range s.heaps {
		ph, pm := h.pool.Stats()
		hits += ph
		misses += pm
	}
	return hits, misses
}

func (s *Store) recover() error {
	entries, maxEpoch, err := readWAL(filepath.Join(s.dir, "wal.log"))
	if err != nil {
		return err
	}
	if v, ok := s.meta[epochKey]; ok && len(v) == 8 && binary.LittleEndian.Uint64(v) > maxEpoch {
		maxEpoch = binary.LittleEndian.Uint64(v)
	}
	if maxEpoch > 0 {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, maxEpoch)
		s.meta[epochKey] = buf
	}
	if len(entries) == 0 {
		return nil
	}
	// Each logged insert is written by Heap.apply, as a commit writes it
	// once its group is logged, and each delete by Heap.del.
	for _, e := range entries {
		switch e.op {
		case opInsert:
			h, err := s.heapLocked(e.heap)
			if err != nil {
				return err
			}
			if err := h.apply([][]byte{e.rec}, []RID{e.rid}); err != nil {
				return fmt.Errorf("storage: recovery insert: %w", err)
			}
		case opDelete:
			h, err := s.heapLocked(e.heap)
			if err != nil {
				return err
			}
			if err := h.del(e.rid); err != nil {
				return fmt.Errorf("storage: recovery delete %s %s: %w", e.heap, e.rid, err)
			}
		case opMetaSet:
			s.meta[e.key] = e.val
		}
	}
	// Make the replayed state durable and clear the log.
	for _, h := range s.heaps {
		if err := h.flush(); err != nil {
			return err
		}
	}
	if err := s.writeMetaSnapshot(); err != nil {
		return err
	}
	return os.Truncate(filepath.Join(s.dir, "wal.log"), 0)
}

// heapLocked returns (creating if necessary) the named heap. Caller holds
// no lock during Open/recovery; afterwards use heap() instead.
func (s *Store) heapLocked(name string) (*Heap, error) {
	if h, ok := s.heaps[name]; ok {
		return h, nil
	}
	if name == "" || strings.ContainsAny(name, "/\\ ") {
		return nil, fmt.Errorf("storage: bad heap name %q", name)
	}
	h, err := openHeap(filepath.Join(s.dir, "heap_"+name+".db"), name, s.opts.PoolFrames)
	if err != nil {
		return nil, err
	}
	s.heaps[name] = h
	return h, nil
}

// heap resolves (creating if necessary) the named heap, taking the map
// lock shared on the fast path.
func (s *Store) heap(name string) (*Heap, error) {
	s.mu.RLock()
	h, ok := s.heaps[name]
	s.mu.RUnlock()
	if ok {
		return h, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heapLocked(name)
}

// Get reads a record from the named heap.
func (s *Store) Get(heap string, rid RID) ([]byte, error) {
	s.mu.RLock()
	h, ok := s.heaps[heap]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: heap %q", ErrNotFound, heap)
	}
	return h.get(rid)
}

// Scan visits all live records of the named heap in RID order. Scanning a
// heap that does not exist yet visits nothing.
func (s *Store) Scan(heap string, fn func(rid RID, rec []byte) bool) error {
	s.mu.RLock()
	h, ok := s.heaps[heap]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	return h.scan(fn)
}

// MetaSet durably sets a key in the meta map: a one-entry batch, which
// takes no commit epoch.
func (s *Store) MetaSet(key string, val []byte) error {
	b := s.NewBatch()
	b.MetaSet(key, val)
	_, err := b.Commit()
	return err
}

// MetaGet reads a key from the meta map.
func (s *Store) MetaGet(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if name, isSeq := strings.CutPrefix(key, seqPrefix); isSeq && s.seqs[name] != nil {
		q := s.seqs[name]
		if n := q.n.Load(); s.seqLogged(q, n) {
			return binary.LittleEndian.AppendUint64(nil, n), true
		}
		return nil, false
	}
	v, ok := s.meta[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// MetaKeys lists meta keys with the given prefix, sorted.
func (s *Store) MetaKeys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	var out []string
	for k := range s.meta {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Blobs exposes the blob store.
func (s *Store) Blobs() *BlobStore { return s.blobs }

// Epoch returns the highest commit epoch reserved so far (committed
// batches may lag it by in-flight reservations).
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// ReserveEpoch hands out the next commit epoch. The reservation is
// in-memory; it becomes durable with the Batch that stamps it (the WAL
// group header carries it, and Commit mirrors it into the meta map for
// the snapshot). Callers must serialise ReserveEpoch with the commit and
// publication of the batch that uses it — the object layer does so under
// its commit mutex — or epochs could become visible out of order.
func (s *Store) ReserveEpoch() uint64 { return s.epoch.Add(1) }

// AdvanceEpoch raises the epoch counter to at least e. The object layer
// calls it at open after scanning record stamps, so epochs issued against
// a store whose meta snapshot lagged its heap records stay monotonic.
func (s *Store) AdvanceEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur {
			return
		}
		if s.epoch.CompareAndSwap(cur, e) {
			break
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if cur, ok := s.meta[epochKey]; !ok || len(cur) != 8 || binary.LittleEndian.Uint64(cur) < e {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, e)
		s.meta[epochKey] = buf
	}
}

// WALBytes reports the log bytes appended since the last checkpoint —
// the signal the kernel's auto-checkpoint trigger watches.
func (s *Store) WALBytes() int64 { return s.wal.size() }

// Checkpoint flushes all heaps and the meta snapshot, truncates the WAL,
// and compacts the blob log. After a checkpoint, recovery has nothing to
// replay.
func (s *Store) Checkpoint() error {
	start := time.Now()
	defer func() {
		s.checkpoints.Inc()
		s.checkpointNS.ObserveSince(start)
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken // truncating the log would lose the group
	}
	for _, h := range s.heaps {
		if err := h.flush(); err != nil {
			return err
		}
	}
	if err := s.writeMetaSnapshot(); err != nil {
		return err
	}
	if err := s.wal.sync(); err != nil {
		return err
	}
	if err := s.wal.truncate(); err != nil {
		return err
	}
	return s.blobs.compact()
}

// Close checkpoints and releases all files.
func (s *Store) Close() error {
	if err := s.Checkpoint(); err != nil {
		s.closeFiles()
		s.wal.close()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, h := range s.heaps {
		if err := h.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.heaps = map[string]*Heap{}
	if err := s.wal.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.blobs.close()
	return firstErr
}

// closeFiles releases heap and blob files without flushing anything.
func (s *Store) closeFiles() {
	for _, h := range s.heaps {
		h.f.Close()
	}
	s.blobs.close()
}

// The meta snapshot's layout is README's "On-disk format 6", *Meta
// snapshot*. Its magic carries the directory's format number,
// formatVersion: Open reads no other. Format 6 stores each image blob in
// the byte-plane form (raster.Pack), which no format-5 reader knows, and
// its WAL holds no meta-delete op; a format-5 directory's blobs are raw,
// so it is refused like the older ones.
const (
	formatVersion = 6
	metaMagic     = "GMETA6\n"
)

// writeMetaSnapshot replaces meta.db durably: the new snapshot is synced
// under a temporary name, renamed over the old one, and the rename synced
// with the directory, so a crash leaves one whole snapshot or the other.
// Each sequence's value is its counter's, read atomically: a reservation
// made while the snapshot is written lands in a later one or a pin. The
// caller holds the store exclusively, or is opening it.
func (s *Store) writeMetaSnapshot() error {
	vals := make(map[string][]byte, len(s.meta)+len(s.seqs))
	for k, v := range s.meta {
		vals[k] = v
	}
	for _, q := range s.seqs {
		if v := q.n.Load(); s.seqLogged(q, v) {
			vals[q.key] = binary.LittleEndian.AppendUint64(nil, v)
		}
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := []byte(metaMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		v := vals[k]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	tmp := filepath.Join(s.dir, "meta.db.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, "meta.db"))
	}
	if err != nil {
		return err
	}
	return syncDir(s.dir)
}

// loadMetaSnapshot reads meta.db, refusing any other format with
// ErrFormat. A new directory — no meta.db, no heap file, no WAL bytes and
// no blob segment — is stamped instead, durably, before anything logs.
func (s *Store) loadMetaSnapshot() error {
	data, err := os.ReadFile(filepath.Join(s.dir, "meta.db"))
	if errors.Is(err, os.ErrNotExist) {
		fsys := os.DirFS(s.dir)
		heaps, _ := fs.Glob(fsys, "heap_*.db")
		segs, _ := fs.Glob(fsys, "blobs/*.seg")
		wal, err := fs.Stat(fsys, "wal.log")
		if len(heaps)+len(segs) == 0 && (err != nil || wal.Size() == 0) {
			return s.writeMetaSnapshot()
		}
	} else if err != nil {
		return err
	}
	if !bytes.HasPrefix(data, []byte(metaMagic)) {
		found := "no format number"
		if len(data) > 6 && string(data[:5]) == "GMETA" && data[6] == '\n' {
			found = "format " + string(data[5])
		}
		return fmt.Errorf("%w: %s has %s, not %d: no migration path", ErrFormat, s.dir, found, formatVersion)
	}
	if len(data) < len(metaMagic)+8 {
		return fmt.Errorf("storage: truncated meta snapshot")
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return fmt.Errorf("storage: corrupt meta snapshot checksum")
	}
	off := len(metaMagic)
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	for i := 0; i < count; i++ {
		if off+2 > len(body) {
			return fmt.Errorf("storage: truncated meta snapshot")
		}
		kn := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+kn+4 > len(body) {
			return fmt.Errorf("storage: truncated meta snapshot key")
		}
		k := string(body[off : off+kn])
		off += kn
		vn := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if off+vn > len(body) {
			return fmt.Errorf("storage: truncated meta snapshot value")
		}
		s.meta[k] = append([]byte(nil), body[off:off+vn]...)
		off += vn
	}
	return nil
}

// HeapStats reports page and record counts of a heap, for benchmarks.
//
//lint:gaea-allow deadcode test helper: object's and the root package's tests count heap pages and records
func (s *Store) HeapStats(heap string) (pages, records int) {
	s.mu.RLock()
	h, ok := s.heaps[heap]
	s.mu.RUnlock()
	if !ok {
		return 0, 0
	}
	return h.stats()
}
