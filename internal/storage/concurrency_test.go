package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// record i is identifiable and big enough that the working set spans
// many more pages than the pool holds, forcing constant eviction.
func stressRec(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("rec-%04d|", i)), 60) // ~540 bytes
}

// TestHeapConcurrentReadersUnderEviction hammers a 4-frame pool with
// parallel readers (sharing the heap read lock) plus a writer, so cache
// misses, unlocked miss-reads, and dirty evictions interleave. Every get
// must return the exact record — no stale pages, duplicate frames, or
// spurious "buffer pool empty" errors.
func TestHeapConcurrentReadersUnderEviction(t *testing.T) {
	dir := t.TempDir()
	h, err := openHeap(filepath.Join(dir, "heap_stress.db"), "stress", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()

	const seed = 64
	recs := make([][]byte, seed)
	for i := range recs {
		recs[i] = stressRec(i)
	}
	rids := make([]RID, seed)
	if _, err := h.insert(recs, rids); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; n < 400; n++ {
				i := (r*131 + n*17) % seed
				rec, err := h.get(rids[i])
				if err != nil {
					errCh <- fmt.Errorf("reader %d: get %d: %w", r, i, err)
					return
				}
				if !bytes.Equal(rec, stressRec(i)) {
					errCh <- fmt.Errorf("reader %d: record %d corrupted/stale", r, i)
					return
				}
			}
		}(r)
	}
	// A writer keeps dirtying pages, four records a run, so evictions
	// perform write-backs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var run [4][]byte
		for n := 0; n < 200; n += len(run) {
			for i := range run {
				run[i] = stressRec(seed + n + i)
			}
			if _, err := h.insert(run[:], make([]RID, len(run))); err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	_, live := h.stats()
	if live != seed+200 {
		t.Errorf("live records = %d, want %d", live, seed+200)
	}
}
