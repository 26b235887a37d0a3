// Package storage mirrors the real internal/storage lock landscape:
// Store.mu (rank 2), Heap.mu (4), bufferPool.mu (5), Store.metaMu (6),
// wal.mu (7).
package storage

import "sync"

type wal struct{ mu sync.Mutex }

type bufferPool struct{ mu sync.Mutex }

type Heap struct{ mu sync.RWMutex }

type Store struct {
	mu     sync.RWMutex
	metaMu sync.Mutex
	heap   *Heap
	buf    *bufferPool
	log    *wal
}

func (s *Store) goodCommitOrder() {
	s.mu.RLock()
	s.heap.mu.Lock()
	s.heap.mu.Unlock()
	s.buf.mu.Lock()
	s.buf.mu.Unlock()
	s.metaMu.Lock()
	s.log.mu.Lock()
	s.log.mu.Unlock()
	s.metaMu.Unlock()
	s.mu.RUnlock()
}

func (s *Store) goodSequential() {
	s.metaMu.Lock()
	s.metaMu.Unlock()
	// metaMu released: taking mu afterwards is fine.
	s.mu.RLock()
	s.mu.RUnlock()
}

func (s *Store) badMetaBeforeMu() {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	s.mu.RLock() // want `acquires storage.Store.mu \(rank 2\) while storage.Store.metaMu \(rank 6\) is held`
	s.mu.RUnlock()
}

func (s *Store) badWalBeforeHeap() {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	s.heap.mu.Lock() // want `acquires storage.Heap.mu \(rank 4\) while storage.wal.mu \(rank 7\) is held`
	s.heap.mu.Unlock()
}

// Append exposes a WAL append; its lock set (wal.mu) flows to callers
// as a fact.
func (s *Store) Append() {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
}

// Checkpoint takes the exclusive store lock; rank 2 flows as a fact.
func (s *Store) Checkpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
}

func (s *Store) goodHelperAscending() {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	s.Append() // 5 then 6: ascending, fine
}

func (s *Store) badHelperDescending() {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	s.Checkpoint() // want `call to Checkpoint acquires storage.Store.mu \(rank 2\) while storage.wal.mu \(rank 7\) is held`
}

func (s *Store) allowedInversion() {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	//lint:gaea-allow lockorder fixture: suppression escape hatch
	s.mu.RLock()
	s.mu.RUnlock()
}
