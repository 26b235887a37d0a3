// Package object mirrors the real internal/object locks: commitMu
// (rank 1) and the catalog mu (rank 8, leaf).
package object

import (
	"sync"

	"gaea/internal/storage"
)

type Store struct {
	mu       sync.RWMutex
	commitMu sync.Mutex
	st       *storage.Store
}

func (o *Store) goodCommitPath() {
	o.commitMu.Lock()
	defer o.commitMu.Unlock()
	o.st.Append() // rank 7 under rank 1: ascending, fine
	o.mu.Lock()   // publish under the leaf lock last
	o.mu.Unlock()
}

func (o *Store) badStorageUnderCatalog() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.st.Append() // want `call to Append acquires storage.wal.mu \(rank 7\) while object.Store.mu \(rank 8\) is held`
}

func (o *Store) badCommitUnderCatalog() {
	o.mu.RLock()
	defer o.mu.RUnlock()
	o.commitMu.Lock() // want `acquires object.Store.commitMu \(rank 1\) while object.Store.mu \(rank 8\) is held`
	o.commitMu.Unlock()
}
