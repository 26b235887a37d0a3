package object

import (
	"errors"
	"sync/atomic"
	"testing"

	"gaea/internal/catalog"
	"gaea/internal/storage"
	"gaea/internal/value"
)

// Tests of reclamation at commit: the queue of superseded versions, the
// horizon pins and the floor set, and reads that race a reclamation.

// reading returns gauge tile's object under oid, carrying mm.
func reading(oid OID, tile int, mm float64) *Object {
	o := gauge(tile)
	o.OID = oid
	o.Attrs["mm"] = value.Float(mm)
	return o
}

func mmOf(t *testing.T, o *Object) float64 {
	t.Helper()
	return float64(o.Attrs["mm"].(value.Float))
}

// TestMVCCReadRacingReclaim: a read that holds no pin resolves a version,
// and before it reads the record, a commit supersedes that version, a GC
// pass reclaims it and (in most cases) an insert takes its heap slot.
// Every read path answers for the object it was asked about — its newest
// version, or nothing at an epoch whose version is gone — never with the
// record now in the slot, and never with a spurious not-found.
func TestMVCCReadRacingReclaim(t *testing.T) {
	cases := []struct {
		name  string
		old   bool // read at the first version's epoch, after an update; else the newest
		reuse bool // an insert takes the reclaimed slot
		check func(t *testing.T, s *Store, a OID, e1 uint64)
	}{
		{"Get", false, true, func(t *testing.T, s *Store, a OID, _ uint64) {
			o, err := s.Get(a)
			if err != nil || o.OID != a || mmOf(t, o) != 2 {
				t.Fatalf("Get = %+v, %v; want object %d with the racing update's mm 2", o, err, a)
			}
		}},
		{"GetSlotFreed", false, false, func(t *testing.T, s *Store, a OID, _ uint64) {
			o, err := s.Get(a)
			if err != nil || o.OID != a || mmOf(t, o) != 2 {
				t.Fatalf("Get = %+v, %v; want object %d with the racing update's mm 2", o, err, a)
			}
		}},
		{"GetRawAt", false, true, func(t *testing.T, s *Store, a OID, _ uint64) {
			rec, blobs, err := s.GetRawAt(a, latestEpoch)
			if err != nil {
				t.Fatal(err)
			}
			o, err := DecodeWire(rec, blobs)
			if err != nil || o.OID != a || mmOf(t, o) != 2 {
				t.Fatalf("GetRawAt decodes to %+v, %v; want object %d with mm 2", o, err, a)
			}
		}},
		{"RecordSize", false, false, func(t *testing.T, s *Store, a OID, _ uint64) {
			if n, err := s.RecordSize(a); err != nil || n == 0 {
				t.Fatalf("RecordSize = %d, %v; want the newest record's size", n, err)
			}
		}},
		{"GetAt", true, true, func(t *testing.T, s *Store, a OID, e1 uint64) {
			if o, err := s.GetAt(a, e1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("GetAt(reclaimed epoch) = %+v, %v; want ErrNotFound", o, err)
			}
		}},
		{"extentAt", true, true, func(t *testing.T, s *Store, a OID, e1 uint64) {
			if ext, ok, err := s.extentAt(a, e1); ok || err != nil {
				t.Fatalf("extentAt(reclaimed epoch) = %v, %v, %v; want not visible", ext, ok, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openGaugeStore(t, storage.Options{NoSync: true})
			a, err := s.Insert(gauge(1))
			if err != nil {
				t.Fatal(err)
			}
			e1 := s.CurrentEpoch()
			update := func() {
				if err := s.Update(reading(a, 1, 2)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.old {
				update()
			}
			var raced atomic.Bool
			s.resolved = func(oid OID) {
				if oid != a || !raced.CompareAndSwap(false, true) {
					return
				}
				if !tc.old {
					update()
				}
				if n, err := s.GC(); err != nil || n != 1 {
					t.Fatalf("GC reclaimed %d, %v; want the version the read resolved", n, err)
				}
				if tc.reuse {
					if _, err := s.Insert(gauge(7)); err != nil {
						t.Fatal(err)
					}
				}
			}
			tc.check(t, s, a, e1)
			if !raced.Load() {
				t.Fatal("the read never resolved the object")
			}
		})
	}
}

// TestMVCCVersionChurnBounded: an object updated 10,000 times with no pin
// held keeps at most two versions — the newest and the one the latest
// commit superseded — in a heap of at most two pages, and no GC runs.
func TestMVCCVersionChurnBounded(t *testing.T) {
	s := openGaugeStore(t, storage.Options{NoSync: true})
	a, err := s.Insert(gauge(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range 10000 {
		if err := s.Update(reading(a, 1, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	mv := s.MVCC()
	if mv.LiveVersions > 2 || mv.Reclaimed != 10000-1 {
		t.Errorf("after 10,000 updates: %d versions stored, %d reclaimed; want <= 2 and 9,999", mv.LiveVersions, mv.Reclaimed)
	}
	if pages, records := s.st.HeapStats(heapFor("gauge")); pages > 2 || records > 2 {
		t.Errorf("heap holds %d pages, %d records; want <= 2 of each", pages, records)
	}
	if o, err := s.Get(a); err != nil || mmOf(t, o) != 9999 {
		t.Errorf("Get = %+v, %v; want the last update", o, err)
	}
}

// TestMVCCPinHoldsVersions: with an epoch pinned across 1,000 updates of
// one object, every version the pin can see stays and reads at the pin
// are exact, while each commit looks at one queue entry however long the
// queue grows. The first commit after the release reclaims all of them.
func TestMVCCPinHoldsVersions(t *testing.T) {
	s := openGaugeStore(t, storage.Options{NoSync: true})
	a, err := s.Insert(gauge(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(reading(a, 1, -1)); err != nil {
		t.Fatal(err)
	}
	pin := s.Pin()
	const n = 1000
	for i := range n {
		if err := s.Update(reading(a, 1, float64(i))); err != nil {
			t.Fatal(err)
		}
		if s.gcVisited > 1 {
			t.Fatalf("update %d: the commit looked at %d queue entries under the pin, want at most 1", i, s.gcVisited)
		}
		if i%97 == 0 {
			if o, err := s.GetAt(a, pin); err != nil || mmOf(t, o) != -1 {
				t.Fatalf("update %d: read at the pin = %+v, %v; want mm -1", i, o, err)
			}
		}
	}
	if got := s.MVCC().LiveVersions; got != n+1 {
		t.Fatalf("%d versions stored under the pin, want %d", got, n+1)
	}
	s.Unpin(pin)
	if err := s.Update(reading(a, 1, n)); err != nil {
		t.Fatal(err)
	}
	if s.gcVisited != n {
		t.Errorf("the first commit after the release looked at %d queue entries, want %d", s.gcVisited, n)
	}
	// The pinned version, and every one the updates superseded but the
	// last, went (the first version went at the first update under the
	// pin, which could not see it); the last waits for the next commit.
	if mv := s.MVCC(); mv.LiveVersions != 2 || mv.Reclaimed != n+1 {
		t.Errorf("after the release: %d versions stored, %d reclaimed; want 2 and %d", mv.LiveVersions, mv.Reclaimed, n+1)
	}
	if _, err := s.GetAt(a, pin); !errors.Is(err, ErrNotFound) {
		t.Errorf("read at the released pin = %v, want ErrNotFound", err)
	}
}

// TestMVCCPinEpochFloor: once a commit reclaims a version superseded at
// epoch S, PinEpoch refuses every epoch below S and allows S and later:
// the floor is where versions went, not where the horizon stood.
func TestMVCCPinEpochFloor(t *testing.T) {
	s := openGaugeStore(t, storage.Options{NoSync: true})
	a, err := s.Insert(gauge(1))
	if err != nil {
		t.Fatal(err)
	}
	e1 := s.CurrentEpoch()
	if err := s.Update(reading(a, 1, 2)); err != nil {
		t.Fatal(err)
	}
	e2 := s.CurrentEpoch()
	// This commit reclaims the first version, superseded at e2, and then
	// another leaves the horizon two epochs past e2 with nothing to take.
	for tile := 2; tile <= 3; tile++ {
		if _, err := s.Insert(gauge(tile)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MVCC().GCFloor; got != e2 {
		t.Fatalf("floor = %d, want %d, the epoch the reclaimed version was superseded at", got, e2)
	}
	if err := s.PinEpoch(e1); !errors.Is(err, ErrSnapshotGone) {
		t.Errorf("PinEpoch(%d), below the floor = %v, want ErrSnapshotGone", e1, err)
	}
	for e := e2; e <= s.CurrentEpoch(); e++ {
		if err := s.PinEpoch(e); err != nil {
			t.Errorf("PinEpoch(%d), at or above the floor %d = %v", e, e2, err)
			continue
		}
		if o, err := s.GetAt(a, e); err != nil || mmOf(t, o) != 2 {
			t.Errorf("read at pinned %d = %+v, %v; want the update", e, o, err)
		}
		s.Unpin(e)
	}
}

// TestMVCCReopenReclaimsAtNextCommit: the versions the last commit before
// a close superseded, and the chain it deleted, are still on disk at the
// reopen; the reopened store queues them and its first commit reclaims
// them.
func TestMVCCReopenReclaimsAtNextCommit(t *testing.T) {
	dir := t.TempDir()
	open := func() (*storage.Store, *Store) {
		t.Helper()
		st, err := storage.Open(dir, storage.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		cat, err := catalog.Open(st)
		if err != nil {
			t.Fatal(err)
		}
		if !cat.Exists("gauge") {
			defineGauge(t, cat)
		}
		s, err := Open(st, cat)
		if err != nil {
			t.Fatal(err)
		}
		return st, s
	}
	st, s := open()
	a, err := s.Insert(gauge(1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Insert(gauge(2))
	if err != nil {
		t.Fatal(err)
	}
	up := reading(a, 1, 2)
	if err := s.CheckUpdate(up); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyBatch(BatchOps{Updates: []*Object{up}, Deletes: []OID{d}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, s = open()
	defer st.Close()
	// a's two versions, and d's live version and tombstone.
	if _, records := st.HeapStats(heapFor("gauge")); records != 4 {
		t.Fatalf("reopened heap holds %d records, want 4", records)
	}
	if _, err := s.Insert(gauge(3)); err != nil {
		t.Fatal(err)
	}
	if mv := s.MVCC(); mv.Reclaimed != 3 || mv.LiveVersions != 2 {
		t.Errorf("first commit after reopen: %d reclaimed, %d versions stored; want 3 and 2", mv.Reclaimed, mv.LiveVersions)
	}
	if _, records := st.HeapStats(heapFor("gauge")); records != 2 {
		t.Errorf("heap holds %d records after the commit, want 2", records)
	}
	if o, err := s.Get(a); err != nil || mmOf(t, o) != 2 {
		t.Errorf("Get = %+v, %v; want the update", o, err)
	}
	if s.Exists(d) {
		t.Error("deleted object exists after reopen")
	}
}

// BenchmarkStoreUpdate updates a class of 1,024 gauges round-robin, one
// object per commit, without fsync: the in-place correction of the
// paper's loop, below the kernel. Beside the time per update it reports
// the heap pages the class occupies at the end and the versions stored
// per object, which grow with b.N where only checkpoints reclaim; run it
// at a fixed -benchtime (20000x) to compare them.
func BenchmarkStoreUpdate(b *testing.B) {
	const n = 1024
	s := openGaugeStore(b, storage.Options{NoSync: true})
	objs := make([]*Object, n)
	for i, oid := range loadGauges(b, s, n, n) {
		objs[i] = reading(oid, i, 0)
	}
	i := 0
	for b.Loop() {
		o := objs[i%n]
		o.Attrs["mm"] = value.Float(float64(i))
		if err := s.Update(o); err != nil {
			b.Fatal(err)
		}
		i++
	}
	pages, _ := s.st.HeapStats(heapFor("gauge"))
	b.ReportMetric(float64(pages), "heap-pages")
	b.ReportMetric(float64(s.MVCC().LiveVersions)/n, "versions/object")
}
