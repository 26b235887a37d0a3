package storage

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// BlobID identifies a large object.
type BlobID uint64

var (
	// ErrBlobNotFound is returned for missing blobs.
	ErrBlobNotFound = errors.New("storage: blob not found")
	// ErrBlobCorrupt is returned when a stored blob fails its checksum, or
	// a sealed segment of the blob log does not frame to its end.
	ErrBlobCorrupt = errors.New("storage: blob log corrupt")
)

// segmentBytes is the size past which the blob log starts a new segment.
const segmentBytes = 32 << 20

// BlobStore holds large payloads (image pixels). The paper's image ADT
// records where its pixels live: "filepath is the absolute path of the
// file that stores the actual image data" (§2.1.3). Here that place is in
// the database's own storage, not one file per image: every blob is a
// record appended to a segment file under blobs/, and an in-memory index
// maps its id to (segment, offset, length).
//
// A record is crc32 u32 | uvarint id | uvarint len | data, the id padded
// to at least two bytes (idLen). The checksum covers the id, the length
// and the data; every Get verifies it.
//
// Put appends to the active segment, the highest-numbered one, and
// unless the store is NoSync fsyncs before it returns, so a blob is on
// disk before the WAL group that refers to it. A new segment starts once
// the active one passes segmentBytes; the one it seals is synced first.
// Delete only drops the id from the index and counts its bytes dead.
//
// Store.Checkpoint compacts: the live blobs of every segment that holds a
// dead byte are appended to the active segment (to a fresh one when the
// active holds a dead byte itself), synced, and those segments removed. A
// checkpoint so rewrites at most the live bytes of segments that hold a
// dead byte, and afterwards blobs/ holds live blobs only.
//
// Open scans every segment; segments are the only layout it reads. A
// record in the last segment that does not frame or verify is a torn
// append: it is truncated, with everything after it. The same fault in a
// sealed segment is ErrBlobCorrupt. An id found twice (a crash during
// compaction) keeps the newer copy. Deletes lost in a crash come back;
// Retain marks them dead again.
type BlobStore struct {
	dir    string
	noSync bool
	limit  int64 // segment size cap: segmentBytes outside tests

	// mu is exclusive for everything that appends or changes the index,
	// shared for reads, so a read never meets a segment compaction closed.
	mu     sync.RWMutex
	index  map[BlobID]blobLoc
	segs   []*segment // ascending; the last is the active one
	nextNo uint64
}

type segment struct {
	no   uint64
	f    *os.File
	size int64 // bytes of records
	dead int64 // bytes of records deleted or superseded
}

type blobLoc struct {
	seg *segment
	off int64 // where the record starts
	n   int64 // payload length
}

func segName(no uint64) string { return fmt.Sprintf("%08d.seg", no) }

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// idLen is the width of a record's id: its uvarint, padded to two bytes.
// Which ids the blobs that survive hold depends on how concurrent puts
// were scheduled; padded, every id below 2^14 takes the same room, so the
// log's size does not.
func idLen(id BlobID) int { return max(2, uvarintLen(uint64(id))) }

func appendID(buf []byte, id BlobID) []byte {
	if id < 0x80 {
		return append(buf, byte(id)|0x80, 0)
	}
	return binary.AppendUvarint(buf, uint64(id))
}

// recordLen is the size of a blob's record in the log.
func recordLen(id BlobID, n int64) int64 {
	return int64(4+idLen(id)+uvarintLen(uint64(n))) + n
}

func appendRecord(buf []byte, id BlobID, data []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = appendID(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(data)))
	buf = append(buf, data...)
	binary.LittleEndian.PutUint32(buf[start:], crc32.ChecksumIEEE(buf[start+4:]))
	return buf
}

// openBlobStore loads the log under dir.
func openBlobStore(dir string, noSync bool) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	b := &BlobStore{dir: dir, noSync: noSync, limit: segmentBytes, index: make(map[BlobID]blobLoc), nextNo: 1}
	var nos []uint64
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".seg"); ok {
			if no, err := strconv.ParseUint(name, 10, 64); err == nil {
				nos = append(nos, no)
			}
		}
	}
	slices.Sort(nos)
	for i, no := range nos {
		if err := b.load(no, i == len(nos)-1); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// load indexes one segment; last says whether it is the active one.
func (b *BlobStore) load(no uint64, last bool) error {
	path := filepath.Join(b.dir, segName(no))
	flag := os.O_RDONLY
	if last {
		flag = os.O_RDWR
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return err
	}
	seg := &segment{no: no, f: f}
	b.segs = append(b.segs, seg)
	b.nextNo = no + 1
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	end, err := scanSegment(f, fi.Size(), func(id BlobID, off, n int64) {
		b.place(id, blobLoc{seg: seg, off: off, n: n})
	})
	if err != nil {
		return fmt.Errorf("storage: scan blob segment %s: %w", path, err)
	}
	seg.size = end
	if end == fi.Size() {
		return nil
	}
	if !last {
		return fmt.Errorf("%w: sealed segment %s does not frame at offset %d", ErrBlobCorrupt, path, end)
	}
	if err := f.Truncate(end); err != nil {
		return fmt.Errorf("storage: truncate torn blob append in %s: %w", path, err)
	}
	return nil
}

// scanSegment calls fn, in order, for each record of a segment that
// frames and verifies, and returns the offset of the first one that does
// not: size when every record does. A header must be encoded as
// appendRecord encodes it.
func scanSegment(f *os.File, size int64, fn func(id BlobID, off, n int64)) (int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 64<<10)
	h := crc32.NewIEEE()
	var off int64
	for off < size {
		p, err := r.Peek(4 + 2*binary.MaxVarintLen64)
		if err != nil && !errors.Is(err, io.EOF) {
			return off, err
		}
		if len(p) < 4 {
			return off, nil
		}
		id, k1 := binary.Uvarint(p[4:])
		if k1 <= 0 || k1 != idLen(BlobID(id)) {
			return off, nil
		}
		n, k2 := binary.Uvarint(p[4+k1:])
		if k2 <= 0 || k2 != uvarintLen(n) {
			return off, nil
		}
		hl := 4 + k1 + k2
		if n > uint64(size-off-int64(hl)) {
			return off, nil
		}
		want := binary.LittleEndian.Uint32(p)
		h.Reset()
		h.Write(p[4:hl])
		r.Discard(hl)
		for rem := int64(n); rem > 0; {
			chunk, err := r.Peek(int(min(rem, int64(r.Size()))))
			h.Write(chunk)
			r.Discard(len(chunk))
			rem -= int64(len(chunk))
			if err != nil && rem > 0 {
				if errors.Is(err, io.EOF) {
					return off, nil
				}
				return off, err
			}
		}
		if h.Sum32() != want {
			return off, nil
		}
		fn(BlobID(id), off, int64(n))
		off += int64(hl) + int64(n)
	}
	return off, nil
}

// place points id at loc; bytes of a copy it supersedes count dead.
// Caller holds mu exclusively (or is Open).
func (b *BlobStore) place(id BlobID, loc blobLoc) {
	if old, ok := b.index[id]; ok {
		old.seg.dead += recordLen(id, old.n)
	}
	b.index[id] = loc
}

func (b *BlobStore) active() *segment {
	if len(b.segs) == 0 {
		return nil
	}
	return b.segs[len(b.segs)-1]
}

// appendLocked writes one record at the end of the active segment,
// starting a new segment first when the active one is full.
func (b *BlobStore) appendLocked(rec []byte) (*segment, int64, error) {
	seg := b.active()
	if seg == nil || seg.size >= b.limit {
		var err error
		if seg, err = b.startSegment(); err != nil {
			return nil, 0, err
		}
	}
	off := seg.size
	if _, err := seg.f.WriteAt(rec, off); err != nil {
		// Leave no partial record for the next append to land behind.
		_ = seg.f.Truncate(off)
		return nil, 0, fmt.Errorf("storage: append to blob segment %d: %w", seg.no, err)
	}
	seg.size += int64(len(rec))
	return seg, off, nil
}

// startSegment seals the active segment and opens the next one. A sealed
// segment must frame to its end at Open, so it is synced even when the
// store is NoSync.
func (b *BlobStore) startSegment() (*segment, error) {
	if err := b.syncActive(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(b.dir, segName(b.nextNo)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if !b.noSync {
		if err := syncDir(b.dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	seg := &segment{no: b.nextNo, f: f}
	b.nextNo++
	b.segs = append(b.segs, seg)
	return seg, nil
}

func (b *BlobStore) syncActive() error {
	if seg := b.active(); seg != nil {
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("storage: sync blob segment %d: %w", seg.no, err)
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Put stores data under the given id (ids come from the store's sequence).
func (b *BlobStore) Put(id BlobID, data []byte) error {
	rec := appendRecord(make([]byte, 0, recordLen(id, int64(len(data)))), id, data)
	b.mu.Lock()
	defer b.mu.Unlock()
	seg, off, err := b.appendLocked(rec)
	if err != nil {
		return err
	}
	if !b.noSync {
		if err := seg.f.Sync(); err != nil {
			seg.dead += int64(len(rec))
			return fmt.Errorf("storage: sync blob %d: %w", id, err)
		}
	}
	b.place(id, blobLoc{seg: seg, off: off, n: int64(len(data))})
	return nil
}

// Get returns the blob's bytes, verifying the checksum.
func (b *BlobStore) Get(id BlobID) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	loc, ok := b.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBlobNotFound, id)
	}
	rec := make([]byte, recordLen(id, loc.n))
	if _, err := loc.seg.f.ReadAt(rec, loc.off); err != nil {
		return nil, fmt.Errorf("storage: read blob %d: %w", id, err)
	}
	hl := len(rec) - int(loc.n)
	gotID, _ := binary.Uvarint(rec[4:])
	if crc32.ChecksumIEEE(rec[4:]) != binary.LittleEndian.Uint32(rec) || BlobID(gotID) != id {
		return nil, fmt.Errorf("%w: blob %d fails its checksum", ErrBlobCorrupt, id)
	}
	return rec[hl:], nil
}

// Delete drops a blob; its bytes go at the next checkpoint. Deleting a
// missing blob is an error so lineage bugs surface.
func (b *BlobStore) Delete(id BlobID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	loc, ok := b.index[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrBlobNotFound, id)
	}
	delete(b.index, id)
	loc.seg.dead += recordLen(id, loc.n)
	return nil
}

// Retain drops every blob whose id is not in keep. The object layer calls
// it at open with the blobs its records refer to, so a blob put for a
// batch that never committed, or one whose delete a crash lost, is gone
// after the next checkpoint.
func (b *BlobStore) Retain(keep map[BlobID]bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, loc := range b.index {
		if !keep[id] {
			delete(b.index, id)
			loc.seg.dead += recordLen(id, loc.n)
		}
	}
}

// Size returns the stored payload size of a blob in bytes (excluding its
// framing). The derived-data manager uses it to weigh storage cost
// against recomputation cost.
func (b *BlobStore) Size(id BlobID) (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	loc, ok := b.index[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrBlobNotFound, id)
	}
	return loc.n, nil
}

// IDs lists all stored blob ids, ascending.
//
//lint:gaea-allow deadcode test helper: object's tests check which blobs a record leaves behind
func (b *BlobStore) IDs() ([]BlobID, error) {
	b.mu.RLock()
	ids := make([]BlobID, 0, len(b.index))
	for id := range b.index {
		ids = append(ids, id)
	}
	b.mu.RUnlock()
	slices.Sort(ids)
	return ids, nil
}

// compact rewrites the live blobs of every segment that holds a dead
// byte into the active segment, syncs, and removes those segments.
func (b *BlobStore) compact() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	dirty := make(map[*segment]bool)
	for _, seg := range b.segs {
		if seg.dead > 0 {
			dirty[seg] = true
		}
	}
	if len(dirty) == 0 {
		return nil
	}
	// The copies must land in a segment that stays and is newer than
	// every original, so that Open keeps them should a crash leave both.
	if dirty[b.active()] {
		if _, err := b.startSegment(); err != nil {
			return err
		}
	}
	type move struct {
		id  BlobID
		loc blobLoc
	}
	var moves []move
	for id, loc := range b.index {
		if dirty[loc.seg] {
			moves = append(moves, move{id, loc})
		}
	}
	slices.SortFunc(moves, func(x, y move) int {
		return cmp.Or(cmp.Compare(x.loc.seg.no, y.loc.seg.no), cmp.Compare(x.loc.off, y.loc.off))
	})
	var buf []byte
	for _, m := range moves {
		n := recordLen(m.id, m.loc.n)
		buf = slices.Grow(buf[:0], int(n))[:n]
		if _, err := m.loc.seg.f.ReadAt(buf, m.loc.off); err != nil {
			return fmt.Errorf("storage: compact blob %d: %w", m.id, err)
		}
		// The record moves verbatim: a corrupt one stays detectable.
		seg, off, err := b.appendLocked(buf)
		if err != nil {
			return err
		}
		b.place(m.id, blobLoc{seg: seg, off: off, n: m.loc.n})
	}
	if err := b.syncActive(); err != nil {
		return err
	}
	if err := syncDir(b.dir); err != nil {
		return err
	}
	// Every blob has left the dirty segments: drop them from the list even
	// if a removal fails, since a leftover file holds only older copies.
	var kept []*segment
	var firstErr error
	for _, seg := range b.segs {
		if !dirty[seg] {
			kept = append(kept, seg)
			continue
		}
		seg.f.Close()
		if err := os.Remove(filepath.Join(b.dir, segName(seg.no))); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b.segs = kept
	return firstErr
}

// close releases the segment files.
func (b *BlobStore) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, seg := range b.segs {
		seg.f.Close()
	}
	b.segs = nil
}
