package storage

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// record i is identifiable and big enough that the working set spans
// many more pages than the pool holds, forcing constant eviction.
func stressRec(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("rec-%04d|", i)), 60) // ~540 bytes
}

// planApply places recs on h as a commit does, with nothing logged: plan
// their RIDs into rids, then apply them. The caller is h's only writer.
func planApply(h *Heap, recs [][]byte, rids []RID) error {
	if _, err := h.plan(recs, rids); err != nil {
		return err
	}
	return h.apply(recs, rids)
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
	if err := planApply(h, recs, rids); err != nil {
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
			if err := planApply(h, run[:], make([]RID, len(run))); err != nil {
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

// TestBatchConcurrentPlans: four goroutines commit page-changing batches
// into one store with a 4-frame pool — inserts, and deletes of their own
// earlier records, so later plans reuse dead slots — while readers Get
// acknowledged records. Nothing above the store serialises the commits:
// the store alone must keep each plan valid until its apply. No live
// RID is issued twice, and after a crash and a reopen every acknowledged
// record is at its RID, with its bytes, and nothing else is in the heap.
func TestBatchConcurrentPlans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, PoolFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		live = map[RID]string{} // acknowledged and not deleted
		kept []RID              // live records no one deletes, for readers
		mine [4][]RID           // each writer's records it may delete
	)
	// phase runs the writers for some rounds, deleting or not, beside two
	// readers, and returns once they are all done.
	phase := func(rounds int, deletes bool) {
		var wg sync.WaitGroup
		for w := range mine {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for n := 0; n < rounds; n++ {
					b := s.NewBatch()
					mu.Lock()
					for deletes && len(mine[w]) > 0 && rng.Intn(3) == 0 {
						i := rng.Intn(len(mine[w]))
						b.Delete("x", mine[w][i])
						// Forgotten before the commit: once it is applied,
						// another writer may be given the RID.
						delete(live, mine[w][i])
						mine[w] = slices.Delete(mine[w], i, i+1)
					}
					mu.Unlock()
					var recs []string
					for i := 1 + rng.Intn(5); i > 0; i-- {
						rec := fmt.Sprintf("w%d-%d-%d-%v|", w, n, i, deletes) + strings.Repeat("#", rng.Intn(2500))
						b.Insert("x", []byte(rec))
						recs = append(recs, rec)
					}
					rids, err := b.Commit()
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					for i, rid := range rids {
						if old, ok := live[rid]; ok {
							t.Errorf("RID %s issued to %.12q while it holds %.12q", rid, recs[i], old)
						}
						live[rid] = recs[i]
						if i == 0 {
							kept = append(kept, rid)
						} else {
							mine[w] = append(mine[w], rid)
						}
					}
					mu.Unlock()
				}
			}(w)
		}
		done := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(100 + r)))
				for {
					select {
					case <-done:
						return
					default:
					}
					mu.Lock()
					if len(kept) == 0 {
						mu.Unlock()
						continue
					}
					rid := kept[rng.Intn(len(kept))]
					want := live[rid]
					mu.Unlock()
					if rec, err := s.Get("x", rid); err != nil || string(rec) != want {
						t.Errorf("Get %s = %.12q, %v; want %.12q", rid, rec, err, want)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(done)
		readers.Wait()
	}
	phase(60, true)
	// Checkpoint, then only insert until the crash: replaying deletes and
	// slot reuses onto pages the pool has already written back fails with
	// a replay conflict, since pages do not yet record which groups they
	// hold.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	phase(20, false)
	if t.Failed() {
		return
	}

	s.closeFiles() // crash
	s.wal.close()
	s2, err := Open(dir, Options{NoSync: true, PoolFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := map[RID]string{}
	if err := s2.Scan("x", func(rid RID, rec []byte) bool {
		got[rid] = string(rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, live) {
		t.Errorf("after a reopen the heap holds %d records, %d acknowledged and live, or they moved", len(got), len(live))
	}
}
