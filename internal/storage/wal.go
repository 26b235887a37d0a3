package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// Redo-only write-ahead log. Every mutation of a heap or of the meta map
// is appended here, as part of one Batch's group record, before it is
// published; pages are written back lazily. On open, the groups recorded
// after the last checkpoint are replayed into the heaps, which makes the
// store crash-safe: a crash loses nothing that was logged and synced.
//
// Every record is a group, opEpochBatch, whose sub-entries are the three
// mutation ops; the layout is README's "On-disk format 6", *WAL group*.
// A group shares one length/crc header, so replay sees all of its
// mutations or none. Replay reads no other record: it stops at the first
// torn or corrupt record, or one that is not a group (standard redo-log
// convention: a torn tail is an interrupted append, not corruption of
// committed state). The epoch is the MVCC commit point of the whole
// group; replay tracks the maximum seen so the store's epoch counter
// survives a crash between checkpoints.
const (
	opInsert     byte = 1
	opDelete     byte = 2
	opMetaSet    byte = 3
	opEpochBatch byte = 6
)

// walEntry is one decoded log record.
type walEntry struct {
	op   byte
	heap string
	rid  RID
	rec  []byte
	key  string
	val  []byte
}

// wal serialises its own appends: concurrent writers to different heaps
// contend only here, not on one store-wide lock.
type wal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	syncOps bool // fsync after every append (durability on), default true
	dirty   bool
	// bytes counts log bytes appended since the last truncate — the
	// "WAL growth since checkpoint" signal the kernel's auto-checkpoint
	// trigger and Stats watch.
	bytes int64
	// appends/syncs count log records and fsyncs since open, for the
	// metrics registry. Atomic: read by registry snapshots without the
	// WAL mutex.
	appends atomic.Int64
	syncs   atomic.Int64
}

func openWAL(path string, syncOps bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, path: path, syncOps: syncOps, bytes: end}, nil
}

// size reports the log bytes appended since the last truncate.
func (w *wal) size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

func (w *wal) append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(hdr); err != nil {
		return err
	}
	if _, err := w.f.Write(payload); err != nil {
		return err
	}
	w.bytes += int64(len(hdr) + len(payload))
	w.appends.Add(1)
	w.dirty = true
	if w.syncOps {
		return w.syncLocked()
	}
	return nil
}

func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *wal) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs.Add(1)
	w.dirty = false
	return nil
}

// group lays out one group record in a single buffer: each sub-entry
// is appended straight after its length word, and the count goes in
// last. Its bytes are one append for the WAL: one crc, at most one
// fsync.
type group struct {
	buf []byte
	n   uint32
}

// groups holds group buffers between commits, so a commit reuses one
// instead of allocating and zeroing its own (tens of kilobytes for a
// load session).
var groups = sync.Pool{New: func() any { return new(group) }}

// newGroup starts a group stamped with its commit epoch, with room for
// size bytes of sub-entries. The caller frees it once the WAL has
// written it.
func newGroup(epoch uint64, size int) *group {
	g := groups.Get().(*group)
	buf := slices.Grow(g.buf[:0], 1+8+4+size)
	buf = binary.LittleEndian.AppendUint64(append(buf, opEpochBatch), epoch)
	g.buf, g.n = append(buf, 0, 0, 0, 0), 0
	return g
}

// free hands the group's buffer on to a later commit.
func (g *group) free() { groups.Put(g) }

// open starts a sub-entry with a length word for close to fill in.
func (g *group) open() int {
	g.buf = append(g.buf, 0, 0, 0, 0)
	return len(g.buf)
}

func (g *group) close(at int) {
	binary.LittleEndian.PutUint32(g.buf[at-4:], uint32(len(g.buf)-at))
	g.n++
}

func (g *group) insert(heap string, rid RID, rec []byte) {
	at := g.open()
	g.buf = appendInsert(g.buf, heap, rid, rec)
	g.close(at)
}

func (g *group) delete(heap string, rid RID) {
	at := g.open()
	g.buf = appendDelete(g.buf, heap, rid)
	g.close(at)
}

func (g *group) metaSet(key string, val []byte) {
	at := g.open()
	g.buf = appendMetaSet(g.buf, key, val)
	g.close(at)
}

// record returns the finished group record.
func (g *group) record() []byte {
	binary.LittleEndian.PutUint32(g.buf[1+8:], g.n)
	return g.buf
}

// Sub-entry appenders, one per mutation op.

func appendInsert(buf []byte, heap string, rid RID, rec []byte) []byte {
	buf = appendString(append(buf, opInsert), heap)
	buf = appendRID(buf, rid)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
	return append(buf, rec...)
}

func appendDelete(buf []byte, heap string, rid RID) []byte {
	return appendRID(appendString(append(buf, opDelete), heap), rid)
}

func appendMetaSet(buf []byte, key string, val []byte) []byte {
	buf = appendString(append(buf, opMetaSet), key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	return append(buf, val...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendRID(buf []byte, rid RID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, rid.Page)
	return binary.LittleEndian.AppendUint16(buf, rid.Slot)
}

// truncate resets the log after a checkpoint.
func (w *wal) truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.bytes = 0
	return w.f.Sync()
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.syncLocked(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// readWAL decodes entries from the start of the log, stopping silently at
// a torn tail. The second return is the highest commit epoch stamped on
// any replayed group, so recovery can restore the epoch counter.
func readWAL(path string) ([]walEntry, uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	var entries []walEntry
	var maxEpoch uint64
	off := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		if off+8+n > len(data) {
			break // torn tail
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != want {
			break // corrupt tail
		}
		subs, epoch, err := decodeGroup(payload)
		if err != nil {
			break
		}
		maxEpoch = max(maxEpoch, epoch)
		entries = append(entries, subs...)
		off += 8 + n
	}
	return entries, maxEpoch, nil
}

// decodeGroup unpacks a group record into its sub-entries and its commit
// epoch. The crc of the record already vouched for the bytes, so any
// decode error here — a record that is not a group included — means a
// malformed writer, and the whole group is rejected.
func decodeGroup(p []byte) ([]walEntry, uint64, error) {
	if len(p) == 0 || p[0] != opEpochBatch {
		return nil, 0, fmt.Errorf("storage: wal record is not a group")
	}
	if len(p) < 1+8+4 {
		return nil, 0, fmt.Errorf("storage: truncated wal batch header")
	}
	epoch := binary.LittleEndian.Uint64(p[1:])
	count := int(binary.LittleEndian.Uint32(p[9:]))
	rest := p[13:]
	// Every sub-entry costs at least its 4-byte length prefix, so a count
	// beyond len(rest)/4 is a malformed record; clamp the allocation and
	// let the per-entry truncation checks reject it.
	entries := make([]walEntry, 0, min(count, len(rest)/4))
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return nil, 0, fmt.Errorf("storage: truncated wal batch length")
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < n {
			return nil, 0, fmt.Errorf("storage: truncated wal batch entry")
		}
		e, err := decodeEntry(rest[:n])
		if err != nil {
			return nil, 0, err
		}
		entries = append(entries, e)
		rest = rest[n:]
	}
	return entries, epoch, nil
}

func decodeEntry(p []byte) (walEntry, error) {
	if len(p) < 1 {
		return walEntry{}, fmt.Errorf("storage: empty wal payload")
	}
	e := walEntry{op: p[0]}
	rest := p[1:]
	readString := func() (string, error) {
		if len(rest) < 2 {
			return "", fmt.Errorf("storage: truncated wal string")
		}
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < n {
			return "", fmt.Errorf("storage: truncated wal string body")
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s, nil
	}
	readRID := func() (RID, error) {
		if len(rest) < 6 {
			return RID{}, fmt.Errorf("storage: truncated wal rid")
		}
		r := RID{Page: binary.LittleEndian.Uint32(rest), Slot: binary.LittleEndian.Uint16(rest[4:])}
		rest = rest[6:]
		return r, nil
	}
	var err error
	switch e.op {
	case opInsert:
		if e.heap, err = readString(); err != nil {
			return e, err
		}
		if e.rid, err = readRID(); err != nil {
			return e, err
		}
		if len(rest) < 4 {
			return e, fmt.Errorf("storage: truncated wal record length")
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < n {
			return e, fmt.Errorf("storage: truncated wal record")
		}
		e.rec = append([]byte(nil), rest[:n]...)
	case opDelete:
		if e.heap, err = readString(); err != nil {
			return e, err
		}
		if e.rid, err = readRID(); err != nil {
			return e, err
		}
	case opMetaSet:
		if e.key, err = readString(); err != nil {
			return e, err
		}
		if len(rest) < 4 {
			return e, fmt.Errorf("storage: truncated wal meta length")
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < n {
			return e, fmt.Errorf("storage: truncated wal meta value")
		}
		e.val = append([]byte(nil), rest[:n]...)
	default:
		return e, fmt.Errorf("storage: unknown wal opcode %d", e.op)
	}
	return e, nil
}
