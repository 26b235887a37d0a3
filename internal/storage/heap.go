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
// Inserts are placed around their WAL append. plan chooses their RIDs,
// a run at a time, and writes no page: each record goes on the newest
// hinted page with room for it, else on a fresh page, into the page's
// first dead slot, else a new one, so a run of one places exactly as
// the first record of a longer run would. Once the group is logged,
// apply writes them there, and replay writes logged inserts with it
// too. So no page holds a record before its group is logged.
//
// Locking: mu is a reader/writer lock. Readers (get, scan, stats) share
// it, so lookups on one heap proceed in parallel; mutators (plan, apply,
// del, flush) take it exclusively, which also makes page contents safe
// to read without further locking. The buffer pool's bookkeeping has its
// own internal mutex so concurrent readers may miss/evict safely.
type Heap struct {
	mu    sync.RWMutex
	name  string
	f     *os.File
	pages int // page count on disk
	pool  *bufferPool
	// freeHint lists pages believed to have free space, ascending by page
	// number, each with what plan has worked out of it, so placement
	// skips a page that cannot fit without reading it.
	freeHint []pageHint
}

// pageHint is one freeHint entry. room is page.room() of the page with
// every planned record on it, or roomUnknown before the first visit and
// after a change that plan did not make. Every slot below next is live
// or planned, so the next record's slot is found from there.
type pageHint struct {
	no   uint32
	room int
	next int
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
// number. The empty page is written now, although plan calls it before
// the group is logged: a fresh page left only in the pool could be
// outlived on disk by a later page, leaving a zeroed hole that fails
// verify at replay.
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

// plan chooses the RIDs of recs, in order, into rids, and returns how
// many it planned: all, or those before the error. It writes no page;
// the hints keep what it planned, so later records plan on top of it.
// It keeps the page it works on, asking the buffer pool for a page only
// when placement moves to another one.
func (h *Heap) plan(recs [][]byte, rids []RID) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	at, p := -1, (*page)(nil) // the page in hand
	for n, rec := range recs {
		if err := checkRecord(rec); err != nil {
			return n, err
		}
		// Try hinted pages from the back (most recently allocated first). A
		// page whose remembered room is too small is passed over without a
		// visit, and dropped exactly when a visit would have dropped it.
		i := len(h.freeHint) - 1
		for ; i >= 0; i-- {
			hint := &h.freeHint[i]
			if (hint.room == roomUnknown || hint.room >= len(rec)) && at != int(hint.no) {
				q, err := h.pool.get(hint.no)
				if err != nil {
					return n, err
				}
				at, p = int(hint.no), q
			}
			if hint.room == roomUnknown {
				hint.room = p.room()
			}
			if hint.room >= len(rec) {
				break
			}
			// Drop the hint only if the page cannot even fit a minimal
			// record — otherwise keep it for smaller records.
			if hint.room < 64 {
				h.freeHint = slices.Delete(h.freeHint, i, i+1)
			}
		}
		if i < 0 {
			no, q, err := h.allocPage()
			if err != nil {
				return n, err
			}
			at, p, i = int(no), q, len(h.freeHint)-1
			h.freeHint[i].room = p.room()
		}
		rids[n] = RID{Page: uint32(at), Slot: uint16(h.freeHint[i].take(p, len(rec)))}
	}
	return len(recs), nil
}

// checkRecord refuses a record no page can take.
func checkRecord(rec []byte) error {
	if len(rec) > MaxRecordLen {
		return fmt.Errorf("%w (%d bytes; store large payloads as blobs)", ErrTooLarge, len(rec))
	}
	if len(rec) == 0 {
		return errors.New("storage: empty record")
	}
	return nil
}

// take plans a record of n bytes, which fits, onto p, the page the hint
// describes, and returns its slot: the first dead slot from next on,
// else a new one. room is kept exact without a walk of the slot array:
// it loses the record's bytes, and a slot's once no dead slot is left.
func (hint *pageHint) take(p *page, n int) int {
	slot := hint.next
	for slot < p.nslots() && !p.dead(slot) {
		slot++
	}
	hint.next = slot + 1
	for hint.next < p.nslots() && !p.dead(hint.next) {
		hint.next++
	}
	hint.room -= n
	if hint.next >= p.nslots() {
		hint.room -= slotSize
	}
	return slot
}

// apply writes recs at rids: where plan put them, once their group is
// logged, or where a logged group says, at replay. It adds the pages a
// RID past the end needs, and leaves the hints alone: plan has set them,
// and at replay they are all still unknown.
func (h *Heap) apply(recs [][]byte, rids []RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	at, p := -1, (*page)(nil) // the page in hand
	for i, rid := range rids {
		if int(rid.Page) != at {
			for uint32(h.pages) <= rid.Page {
				if _, _, err := h.allocPage(); err != nil {
					return err
				}
			}
			q, err := h.pool.get(rid.Page)
			if err != nil {
				return err
			}
			// Marked before it changes: the pool, which alone could evict
			// it, is asked for nothing else until apply leaves the page.
			h.pool.markDirty(rid.Page)
			at, p = int(rid.Page), q
		}
		if err := p.insertAt(int(rid.Slot), recs[i]); err != nil {
			return fmt.Errorf("storage: heap %s %s: %w", h.name, rid, err)
		}
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

// del removes the record at rid, if there is one: a commit's delete
// and a replayed one find nothing to remove only when a group that
// removed it is replayed again.
func (h *Heap) del(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rid.Page >= uint32(h.pages) {
		return nil
	}
	p, err := h.pool.get(rid.Page)
	if err != nil {
		return err
	}
	if err := p.del(int(rid.Slot)); err != nil {
		if errors.Is(err, ErrRecDeleted) || errors.Is(err, ErrBadSlot) {
			return nil
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
// remembered or planned of it.
func (h *Heap) rehint(no uint32) {
	i, ok := h.hintIndex(no)
	if !ok {
		h.freeHint = slices.Insert(h.freeHint, i, pageHint{})
	}
	h.freeHint[i] = pageHint{no: no, room: roomUnknown}
}

// unplan forgets the plan that put records at rids, which will not be
// applied: their pages are hinted afresh.
func (h *Heap) unplan(rids []RID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, rid := range rids {
		h.rehint(rid.Page)
	}
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
