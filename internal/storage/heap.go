package storage

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
)

// RID identifies a record: page number plus slot within the page.
type RID struct {
	Page uint32
	Slot uint16
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// ErrNotFound is returned for missing or deleted records.
var ErrNotFound = errors.New("storage: record not found")

// Heap is a slotted-page heap file behind a small buffer pool. All
// mutations go through the owning Store so they are WAL-logged; Heap
// methods themselves only touch pages.
//
// Records are placed a run at a time: insert takes a batch's run of
// records for this heap and places each on the newest hinted page with
// room for it, else on a fresh page, working on one page at a time, so
// the pool is asked once for each page placement moves to and told once
// that the page it leaves is dirty. A run of one places exactly as the
// first record of a longer run would.
//
// Locking: mu is a reader/writer lock. Readers (get, scan, stats) share
// it, so lookups on one heap proceed in parallel; mutators (insert, del,
// flush) take it exclusively, which also makes page contents safe to
// read without further locking. The buffer pool's bookkeeping has its
// own internal mutex so concurrent readers may miss/evict safely.
type Heap struct {
	mu    sync.RWMutex
	name  string
	f     *os.File
	pages int // page count on disk
	pool  *bufferPool
	// freeHint lists pages believed to have free space, ascending by page
	// number, each with the longest record it can still take when that is
	// known, so placement skips a page that cannot fit without reading it.
	freeHint []pageHint
}

// pageHint is one freeHint entry; room is page.room() as of the last
// visit, or roomUnknown before the first one and after a change that did
// not go through insert.
type pageHint struct {
	no   uint32
	room int
}

// roomUnknown is below anything page.room() returns.
const roomUnknown = -PageSize

func openHeap(path, name string, poolFrames int) (*Heap, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: heap %s has torn size %d", name, st.Size())
	}
	h := &Heap{name: name, f: f, pages: int(st.Size() / PageSize)}
	h.pool = newBufferPool(poolFrames, h.readPage, h.writePage)
	// Rebuild the free-space hint lazily: every existing page is a
	// candidate until proven full.
	for i := 0; i < h.pages; i++ {
		h.freeHint = append(h.freeHint, pageHint{no: uint32(i), room: roomUnknown})
	}
	return h, nil
}

func (h *Heap) readPage(no uint32) (*page, error) {
	p := &page{}
	if _, err := h.f.ReadAt(p.buf[:], int64(no)*PageSize); err != nil {
		return nil, fmt.Errorf("storage: heap %s page %d: %w", h.name, no, err)
	}
	if err := p.verify(); err != nil {
		return nil, fmt.Errorf("storage: heap %s page %d: %w", h.name, no, err)
	}
	return p, nil
}

func (h *Heap) writePage(no uint32, p *page) error {
	p.seal()
	if _, err := h.f.WriteAt(p.buf[:], int64(no)*PageSize); err != nil {
		return fmt.Errorf("storage: heap %s page %d: %w", h.name, no, err)
	}
	return nil
}

// allocPage appends a fresh page to the file and returns it with its
// number.
func (h *Heap) allocPage() (uint32, *page, error) {
	no := uint32(h.pages)
	p := newPage()
	if err := h.writePage(no, p); err != nil {
		return 0, nil, err
	}
	h.pages++
	h.pool.put(no, p)
	h.freeHint = append(h.freeHint, pageHint{no: no, room: roomUnknown})
	return no, p, nil
}

// insert places recs in order, each where placing it alone would: on the
// newest hinted page with room for it, else on a fresh page. It writes
// their RIDs to rids and returns how many it placed: all of them, or
// those before the error.
//
// The run takes the heap lock once. Placement keeps the page it works on
// and asks the buffer pool for a page only when it moves to another one;
// the page it leaves, when changed, is marked dirty then, before the pool
// is asked for anything else, so no eviction can find it clean.
func (h *Heap) insert(recs [][]byte, rids []RID) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var (
		at    = -1 // the page in hand, -1 for none
		p     *page
		dirty bool
	)
	leave := func() {
		if dirty {
			h.pool.markDirty(uint32(at))
			dirty = false
		}
	}
	defer leave()
	for n, rec := range recs {
		if len(rec) > MaxRecordLen {
			return n, fmt.Errorf("%w (%d bytes; store large payloads as blobs)", ErrTooLarge, len(rec))
		}
		placed := false
		// Try hinted pages from the back (most recently allocated first). A
		// page whose remembered room is too small is passed over without a
		// visit, and dropped exactly when a visit would have dropped it.
		for i := len(h.freeHint) - 1; i >= 0 && !placed; i-- {
			hint := &h.freeHint[i]
			if (hint.room == roomUnknown || hint.room >= len(rec)) && at != int(hint.no) {
				leave()
				q, err := h.pool.get(hint.no)
				if err != nil {
					return n, err
				}
				at, p = int(hint.no), q
			}
			if hint.room == roomUnknown {
				hint.room = p.room()
			}
			if hint.room < len(rec) {
				// Drop the hint only if the page cannot even fit a minimal
				// record — otherwise keep it for smaller records.
				if hint.room < 64 {
					h.freeHint = append(h.freeHint[:i], h.freeHint[i+1:]...)
				}
				continue
			}
			k := p.nslots()
			slot, err := p.insert(rec)
			if err != nil {
				continue
			}
			if p.nslots() > k {
				// A new slot: the page had no dead one, so room drops by exactly
				// what was added — no walk over the slot array per insert.
				hint.room -= len(rec) + slotSize
			} else {
				hint.room = p.room()
			}
			dirty, placed = true, true
			rids[n] = RID{Page: hint.no, Slot: uint16(slot)}
		}
		if placed {
			continue
		}
		leave()
		no, q, err := h.allocPage()
		if err != nil {
			return n, err
		}
		at, p = int(no), q
		slot, err := p.insert(rec)
		if err != nil {
			return n, err
		}
		h.freeHint[len(h.freeHint)-1].room = p.room()
		dirty = true
		rids[n] = RID{Page: no, Slot: uint16(slot)}
	}
	return len(recs), nil
}

// insertAt places rec at an exact RID (WAL replay path).
func (h *Heap) insertAt(rid RID, rec []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for uint32(h.pages) <= rid.Page {
		if _, _, err := h.allocPage(); err != nil {
			return err
		}
	}
	p, err := h.pool.get(rid.Page)
	if err != nil {
		return err
	}
	if err := p.insertAt(int(rid.Slot), rec); err != nil {
		return err
	}
	h.pool.markDirty(rid.Page)
	if i, ok := h.hintIndex(rid.Page); ok {
		h.freeHint[i].room = roomUnknown
	}
	return nil
}

// get returns a copy of the record at rid.
func (h *Heap) get(rid RID) ([]byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if rid.Page >= uint32(h.pages) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	p, err := h.pool.get(rid.Page)
	if err != nil {
		return nil, err
	}
	rec, err := p.get(int(rid.Slot))
	if err != nil {
		if errors.Is(err, ErrRecDeleted) || errors.Is(err, ErrBadSlot) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, rid)
		}
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// del removes the record at rid.
func (h *Heap) del(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rid.Page >= uint32(h.pages) {
		return fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	p, err := h.pool.get(rid.Page)
	if err != nil {
		return err
	}
	if err := p.del(int(rid.Slot)); err != nil {
		if errors.Is(err, ErrRecDeleted) || errors.Is(err, ErrBadSlot) {
			return fmt.Errorf("%w: %s", ErrNotFound, rid)
		}
		return err
	}
	h.pool.markDirty(rid.Page)
	// The page regained space; re-hint it.
	h.rehint(rid.Page)
	return nil
}

// hintIndex finds page no in freeHint, or where it would be inserted.
func (h *Heap) hintIndex(no uint32) (int, bool) {
	i := sort.Search(len(h.freeHint), func(i int) bool { return h.freeHint[i].no >= no })
	return i, i < len(h.freeHint) && h.freeHint[i].no == no
}

// rehint makes page no a placement candidate again and forgets what was
// remembered of its room.
func (h *Heap) rehint(no uint32) {
	i, ok := h.hintIndex(no)
	if !ok {
		h.freeHint = slices.Insert(h.freeHint, i, pageHint{no: no})
	}
	h.freeHint[i].room = roomUnknown
}

// scan visits every live record in RID order. Returning false from fn
// stops the scan.
func (h *Heap) scan(fn func(rid RID, rec []byte) bool) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for no := 0; no < h.pages; no++ {
		p, err := h.pool.get(uint32(no))
		if err != nil {
			return err
		}
		for s := 0; s < p.nslots(); s++ {
			rec, err := p.get(s)
			if err != nil {
				continue // dead slot
			}
			cp := make([]byte, len(rec))
			copy(cp, rec)
			if !fn(RID{Page: uint32(no), Slot: uint16(s)}, cp) {
				return nil
			}
		}
	}
	return nil
}

// flush writes all dirty pages and syncs the file.
func (h *Heap) flush() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.pool.flushAll(); err != nil {
		return err
	}
	return h.f.Sync()
}

// close flushes and closes the backing file.
func (h *Heap) close() error {
	if err := h.flush(); err != nil {
		h.f.Close()
		return err
	}
	return h.f.Close()
}

// stats counts the heap's pages and live records, for HeapStats.
func (h *Heap) stats() (pages int, liveRecords int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	pages = h.pages
	for no := 0; no < h.pages; no++ {
		p, err := h.pool.get(uint32(no))
		if err != nil {
			continue
		}
		for s := 0; s < p.nslots(); s++ {
			if !p.dead(s) {
				liveRecords++
			}
		}
	}
	return pages, liveRecords
}
