package storage

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// bufferPool caches heap pages with LRU eviction. Dirty pages are written
// back on eviction and on flushAll. The pool guards its own bookkeeping
// (frame map, LRU list, counters) with an internal mutex so concurrent
// readers holding the Heap's read lock can share it; page *contents* are
// protected by the owning Heap's RWMutex (mutators hold the write lock).
type bufferPool struct {
	mu     sync.Mutex
	cap    int
	read   func(uint32) (*page, error)
	write  func(uint32, *page) error
	frames map[uint32]*list.Element
	lru    *list.List // front = most recently used
	// Hits/Misses are exported through Stats (the S1 benchmark) and the
	// metrics registry. Atomic so concurrent observers — Stats callers,
	// registry snapshots — read them without taking the pool lock.
	hits, misses atomic.Uint64
}

type frame struct {
	no    uint32
	p     *page
	dirty bool
}

func newBufferPool(capacity int, read func(uint32) (*page, error), write func(uint32, *page) error) *bufferPool {
	if capacity < 4 {
		capacity = 4
	}
	return &bufferPool{
		cap:    capacity,
		read:   read,
		write:  write,
		frames: make(map[uint32]*list.Element, capacity),
		lru:    list.New(),
	}
}

// get returns the cached page, loading (and possibly evicting) as needed.
// Any get, a reader's miss too, may write back a dirty page; a page
// changes only once its group is logged, so that holds nothing the WAL
// does not.
// The pool lock is released across the disk read so a miss does not
// serialize concurrent hits on other pages. This is safe because a page
// absent from the frame map is clean on disk: a dirty page is only
// evicted after its write-back completes, both under the pool lock, so
// no write to the page's offset can overlap the unlocked read. Two
// simultaneous misses on one page may both read it; the loser discards
// its copy on the re-check.
func (b *bufferPool) get(no uint32) (*page, error) {
	b.mu.Lock()
	if el, ok := b.frames[no]; ok {
		b.hits.Add(1)
		b.lru.MoveToFront(el)
		p := el.Value.(*frame).p
		b.mu.Unlock()
		return p, nil
	}
	b.misses.Add(1)
	b.mu.Unlock()
	p, err := b.read(no)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.frames[no]; ok {
		// Another reader loaded it meanwhile; keep the cached frame (it
		// may already carry buffered mutations).
		b.lru.MoveToFront(el)
		return el.Value.(*frame).p, nil
	}
	if err := b.insertFrame(no, p, false); err != nil {
		return nil, err
	}
	return p, nil
}

// put installs a page that was just created/written by the caller.
func (b *bufferPool) put(no uint32, p *page) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.frames[no]; ok {
		fr := el.Value.(*frame)
		fr.p = p
		b.lru.MoveToFront(el)
		return
	}
	// Creation already wrote the page; cache it clean.
	_ = b.insertFrame(no, p, false)
}

func (b *bufferPool) insertFrame(no uint32, p *page, dirty bool) error {
	for b.lru.Len() >= b.cap {
		if err := b.evictOne(); err != nil {
			return err
		}
	}
	el := b.lru.PushFront(&frame{no: no, p: p, dirty: dirty})
	b.frames[no] = el
	return nil
}

// evictOne is called with b.mu held and keeps it held across a dirty
// victim's write-back: writePage is a buffered WriteAt (no fsync), so
// the hold is microseconds, and insertFrame's duplicate check and the
// unlocked miss-read in get both rely on eviction being atomic under
// the lock.
func (b *bufferPool) evictOne() error {
	el := b.lru.Back()
	if el == nil {
		return fmt.Errorf("storage: buffer pool empty during eviction")
	}
	fr := el.Value.(*frame)
	if fr.dirty {
		if err := b.write(fr.no, fr.p); err != nil {
			return err
		}
	}
	b.lru.Remove(el)
	delete(b.frames, fr.no)
	return nil
}

// markDirty flags a cached page as modified.
func (b *bufferPool) markDirty(no uint32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.frames[no]; ok {
		el.Value.(*frame).dirty = true
	}
}

// flushAll writes every dirty page back, keeping frames cached.
func (b *bufferPool) flushAll() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for el := b.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*frame)
		if fr.dirty {
			if err := b.write(fr.no, fr.p); err != nil {
				return err
			}
			fr.dirty = false
		}
	}
	return nil
}

// Stats reports cache effectiveness. Lock-free: the counters are
// atomics, so hammering Stats never stalls the hit path.
func (b *bufferPool) Stats() (hits, misses uint64) {
	return b.hits.Load(), b.misses.Load()
}
