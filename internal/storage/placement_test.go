package storage

import (
	"bytes"
	"cmp"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestBatchPlacementMatchesOneAtATime: random sequences of inserts of
// random sizes, committed a round at a time as one batch on one store and
// one insert per batch on a twin, get the same RIDs, and both stores end
// with the same page bytes. Each round first deletes some records (one
// batch on each store), so later inserts reuse dead slots; some records
// fill what is left of the newest page exactly, or a fresh page; a round
// interleaves two heaps, so a batch holds several runs; and a 4-frame
// pool evicts pages in mid-run.
func TestBatchPlacementMatchesOneAtATime(t *testing.T) {
	heaps := []string{"x", "y"}
	for _, frames := range []int{4, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			open := func() *Store {
				s, err := Open(t.TempDir(), Options{NoSync: true, PoolFrames: frames})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			batched, single := open(), open()
			rng := rand.New(rand.NewSource(seed))
			live := map[RID]string{}
			freed := map[RID]bool{}
			var reused, exact int
			for round := 0; round < 40; round++ {
				// Deletes, the same records from both stores.
				var dels []RID
				for _, rid := range slices.SortedFunc(maps.Keys(live), func(a, b RID) int {
					return cmp.Or(cmp.Compare(a.Page, b.Page), cmp.Compare(a.Slot, b.Slot))
				}) {
					if rng.Intn(5) == 0 {
						dels = append(dels, rid)
					}
				}
				for _, s := range []*Store{batched, single} {
					b := s.NewBatch()
					for _, rid := range dels {
						b.Delete(live[rid], rid)
					}
					if _, err := b.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				for _, rid := range dels {
					freed[rid] = true
					delete(live, rid)
				}

				// Inserts: one batch on batched, one batch each on single.
				type staged struct {
					heap string
					rec  []byte
				}
				var ins []staged
				heap := heaps[0]
				for n := 1 + rng.Intn(150); len(ins) < n; {
					if rng.Intn(8) == 0 {
						heap = heaps[rng.Intn(len(heaps))]
					}
					size := 1 + rng.Intn(60)
					switch k := rng.Intn(20); {
					case k < 4:
						size = 61 + rng.Intn(1200)
					case k == 4:
						size = 1201 + rng.Intn(MaxRecordLen-1200)
					case k == 5:
						size = MaxRecordLen // a fresh page, filled exactly
					case k == 6 && len(ins) == 0:
						// What the newest page of the heap has left, when the
						// round starts on it.
						if h, err := batched.heap(heap); err == nil && h.pages > 0 {
							p, err := h.pool.get(uint32(h.pages - 1))
							if err != nil {
								t.Fatal(err)
							}
							if r := p.room(); r > 0 {
								size = r
							}
						}
					}
					rec := make([]byte, size)
					rng.Read(rec)
					ins = append(ins, staged{heap, rec})
				}
				b := batched.NewBatch()
				for _, in := range ins {
					b.Insert(in.heap, in.rec)
				}
				got, err := b.Commit()
				if err != nil {
					t.Fatal(err)
				}
				for i, in := range ins {
					want, err := insert(single, in.heap, in.rec)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Fatalf("frames %d seed %d round %d insert %d (%d bytes into %s): batch placed it at %s, one at a time at %s",
							frames, seed, round, i, len(in.rec), in.heap, got[i], want)
					}
					if freed[want] {
						reused++
						delete(freed, want)
					}
					live[want] = in.heap
					h, err := batched.heap(in.heap)
					if err != nil {
						t.Fatal(err)
					}
					if p, err := h.pool.get(want.Page); err != nil {
						t.Fatal(err)
					} else if p.freeSpace() == 0 && p.holes() == 0 {
						exact++
					}
				}
			}
			if reused == 0 || exact == 0 {
				t.Errorf("frames %d seed %d: %d dead slots reused, %d pages filled exactly; the draw must cover both", frames, seed, reused, exact)
			}
			if _, misses := batched.BufferStats(); frames == 4 && misses == 0 {
				t.Errorf("seed %d: a 4-frame pool never missed, so nothing was evicted", seed)
			}
			for _, s := range []*Store{batched, single} {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			for _, heap := range heaps {
				a, errA := os.ReadFile(filepath.Join(batched.dir, "heap_"+heap+".db"))
				b, errB := os.ReadFile(filepath.Join(single.dir, "heap_"+heap+".db"))
				if errA != nil || errB != nil {
					t.Fatal(errA, errB)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("frames %d seed %d: heap %s differs: %d bytes batched, %d one at a time", frames, seed, heap, len(a), len(b))
				}
			}
		}
	}
}

// TestBatchFailedAppendLeavesPages: a batch whose WAL append fails
// leaves the heap as it was before it, although its 40 records spread
// over more pages than the 4-frame pool holds: every record there before
// is where it was, with its bytes, and none of the batch's reads back,
// neither at once nor after a crash straight after the append and a
// reopen.
func TestBatchFailedAppendLeavesPages(t *testing.T) {
	for _, crash := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(dir, Options{NoSync: true, PoolFrames: 4})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 30; i++ {
			rec := make([]byte, 1+rng.Intn(900))
			rng.Read(rec)
			rid, err := insert(s, "x", rec)
			if err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if err := remove(s, "x", rid); err != nil {
					t.Fatal(err)
				}
			}
		}
		contents := func(s *Store) map[RID]string {
			out := map[RID]string{}
			if err := s.Scan("x", func(rid RID, rec []byte) bool {
				out[rid] = string(rec)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		// Checkpoint, so the reopen has no earlier group to replay:
		// replaying these deletes and slot reuses onto pages the pool has
		// already written back fails with a replay conflict, since pages
		// do not yet record which groups they hold.
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before := contents(s)

		s.wal.f.Close() // the next append fails
		b := s.NewBatch()
		for i := 0; i < 40; i++ {
			rec := make([]byte, 3000)
			rng.Read(rec)
			b.Insert("x", rec)
		}
		if _, err := b.Commit(); err == nil {
			t.Fatal("a batch committed through a closed WAL")
		}
		if !crash {
			if after := contents(s); !maps.Equal(before, after) {
				t.Errorf("the heap holds %d records after the failed batch, %d before, or they moved", len(after), len(before))
			}
			s.Close()
			continue
		}
		s.closeFiles()
		if s, err = Open(dir, Options{NoSync: true, PoolFrames: 4}); err != nil {
			t.Fatal(err)
		}
		if after := contents(s); !maps.Equal(before, after) {
			t.Errorf("after a crash and a reopen the heap holds %d records, %d before the failed batch, or they moved", len(after), len(before))
		}
		s.Close()
	}
}

// TestFreshPageOutlivedByLaterPage pins why placement writes a fresh
// page to the file when it opens it. The first batch opens page 0 of a
// heap, and reads keep that page in a 4-frame pool while later batches
// open pages 1 to 8, which the pool evicts to disk: page 0's only copy
// on disk is the empty page written when it was opened. After a crash
// straight after (nothing flushed) and a reopen, replay applies page 0's
// record to that page, and every record reads back. Were the fresh page
// not written, the later pages would leave a zeroed hole where page 0
// lies, and replay would fail on it.
func TestFreshPageOutlivedByLaterPage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, PoolFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte{'a'}, 100)
	rid0, err := insert(s, "x", first)
	if err != nil {
		t.Fatal(err)
	}
	want := map[RID]string{rid0: string(first)}
	for i := 1; i <= 8; i++ {
		rec := bytes.Repeat([]byte{'a' + byte(i)}, MaxRecordLen) // a page to itself
		rid, err := insert(s, "x", rec)
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != uint32(i) {
			t.Fatalf("record %d placed on page %d", i, rid.Page)
		}
		want[rid] = string(rec)
		if _, err := s.Get("x", rid0); err != nil { // page 0 stays in the pool
			t.Fatal(err)
		}
	}
	if _, misses := s.BufferStats(); misses != 0 {
		t.Fatalf("page 0 left the pool (%d misses)", misses)
	}
	s.closeFiles()
	s.wal.close()
	if s, err = Open(dir, Options{NoSync: true, PoolFrames: 4}); err != nil {
		t.Fatalf("reopen after the crash: %v", err)
	}
	defer s.Close()
	for rid, rec := range want {
		if got, err := s.Get("x", rid); err != nil || string(got) != rec {
			t.Errorf("record at %s after the crash: %d bytes, %v", rid, len(got), err)
		}
	}
}
