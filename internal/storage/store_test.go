package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// insert commits one record as a one-record batch.
func insert(s *Store, heap string, rec []byte) (RID, error) {
	b := s.NewBatch()
	b.Insert(heap, rec)
	rids, err := b.Commit()
	if err != nil {
		return RID{}, err
	}
	return rids[0], nil
}

// remove commits one record removal as a one-record batch.
func remove(s *Store, heap string, rid RID) error {
	b := s.NewBatch()
	b.Delete(heap, rid)
	_, err := b.Commit()
	return err
}

// pin makes a sequence's reservations durable with a batch that stages
// nothing but the pin.
func pin(t *testing.T, s *Store, sequence string) {
	t.Helper()
	b := s.NewBatch()
	b.PinSequence(sequence)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreInsertGetDelete(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	defer s.Close()

	rid, err := insert(s, "objects", []byte("landcover africa 1986"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("objects", rid)
	if err != nil || string(got) != "landcover africa 1986" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := remove(s, "objects", rid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("objects", rid); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted get err = %v", err)
	}
	if _, err := s.Get("nope", RID{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown heap err = %v", err)
	}
}

func TestStoreScan(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	defer s.Close()

	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		rec := fmt.Sprintf("record-%03d", i)
		if _, err := insert(s, "scan", []byte(rec)); err != nil {
			t.Fatal(err)
		}
		want[rec] = true
	}
	seen := 0
	err := s.Scan("scan", func(rid RID, rec []byte) bool {
		if !want[string(rec)] {
			t.Errorf("unexpected record %q", rec)
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 100 {
		t.Errorf("scanned %d records, want 100", seen)
	}
	// Early stop.
	n := 0
	s.Scan("scan", func(RID, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
	// Scanning a missing heap visits nothing.
	if err := s.Scan("ghost", func(RID, []byte) bool { t.Fatal("visited"); return false }); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMultiPageSpill(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	defer s.Close()

	// ~4KB records force one per page roughly; 50 of them spill pages.
	rec := make([]byte, 4000)
	rids := make([]RID, 50)
	for i := range rids {
		rec[0] = byte(i)
		rid, err := insert(s, "big", rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	pages, live := s.HeapStats("big")
	if pages < 25 {
		t.Errorf("expected many pages, got %d", pages)
	}
	if live != 50 {
		t.Errorf("live = %d", live)
	}
	for i, rid := range rids {
		got, err := s.Get("big", rid)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("record %d damaged: %v", i, err)
		}
	}
}

func TestStoreRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	defer s.Close()
	if _, err := insert(s, "x", make([]byte, MaxRecordLen+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized err = %v", err)
	}
}

func TestStorePersistenceAcrossClose(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	rid, err := insert(s, "objects", []byte("persist me"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MetaSet("schema/version", []byte("7")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir)
	defer s2.Close()
	got, err := s2.Get("objects", rid)
	if err != nil || string(got) != "persist me" {
		t.Fatalf("after reopen: %q, %v", got, err)
	}
	v, ok := s2.MetaGet("schema/version")
	if !ok || string(v) != "7" {
		t.Errorf("meta after reopen = %q, %v", v, ok)
	}
}

func TestStoreCrashRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	// Use synced WAL so a "crash" loses nothing logged.
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 20; i++ {
		rid, err := insert(s, "objects", []byte(fmt.Sprintf("obj-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := remove(s, "objects", rids[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.MetaSet("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.AllocID("tasks")
	pin(t, s, "tasks")
	// Simulate a crash: abandon s without Close (buffered pages unflushed).
	s.closeFiles()
	s.wal.close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	for i, rid := range rids {
		got, err := s2.Get("objects", rid)
		if i == 3 {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("deleted record resurrected: %q, %v", got, err)
			}
			continue
		}
		if err != nil || string(got) != fmt.Sprintf("obj-%d", i) {
			t.Errorf("record %d after recovery: %q, %v", i, got, err)
		}
	}
	if v, ok := s2.MetaGet("k"); !ok || string(v) != "v" {
		t.Error("meta lost in recovery")
	}
	// Sequence continues past the recovered value.
	if id := s2.AllocID("tasks"); id != 2 {
		t.Errorf("sequence after recovery = %d, want 2", id)
	}

	// A dead slot reused by a longer record, then — after a checkpoint
	// flushed the page — by a shorter one: replay resizes the slot's hole
	// on the flushed page and moves the records after it. With the page
	// also flushed after the second reuse, the replay is a no-op.
	for _, flushed := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[RID]string{}
		put := func(rec string) RID {
			rid, err := insert(s, "objects", []byte(rec))
			if err != nil {
				t.Fatal(err)
			}
			want[rid] = rec
			return rid
		}
		reuse := func(rid RID, rec string) {
			if err := remove(s, "objects", rid); err != nil {
				t.Fatal(err)
			}
			if got := put(rec); got != rid {
				t.Fatalf("%q placed at %s, not in the freed slot %s", rec, got, rid)
			}
		}
		var rids []RID
		for i := 0; i < 8; i++ {
			rids = append(rids, put(fmt.Sprintf("obj-%d", i)))
		}
		reuse(rids[3], "a longer record in slot 3")
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		reuse(rids[3], "short")
		put("after")
		if flushed {
			h, err := s.heap("objects")
			if err != nil {
				t.Fatal(err)
			}
			if err := h.flush(); err != nil {
				t.Fatal(err)
			}
		}
		s.closeFiles()
		s.wal.close()

		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery (flushed %v) failed: %v", flushed, err)
		}
		for rid, rec := range want {
			if got, err := s2.Get("objects", rid); err != nil || string(got) != rec {
				t.Errorf("flushed %v: %s after recovery: %q, %v; want %q", flushed, rid, got, err, rec)
			}
		}
		if _, n := s2.HeapStats("objects"); n != len(want) {
			t.Errorf("flushed %v: %d records after recovery, want %d", flushed, n, len(want))
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rid, err := insert(s, "objects", []byte("committed"))
	if err != nil {
		t.Fatal(err)
	}
	s.closeFiles()
	s.wal.close()

	// Append garbage to the WAL to simulate a torn write.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD, 0xBE})
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn WAL: %v", err)
	}
	defer s2.Close()
	got, err := s2.Get("objects", rid)
	if err != nil || string(got) != "committed" {
		t.Errorf("committed record lost: %q, %v", got, err)
	}
}

func TestStoreSequences(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for i := 1; i <= 5; i++ {
		if id := s.AllocID("oid"); id != uint64(i) {
			t.Errorf("AllocID = %d, want %d", id, i)
		}
	}
	if other := s.AllocID("task"); other != 1 {
		t.Errorf("independent sequence = %d", other)
	}
	s.Close()
	s2 := openTestStore(t, dir)
	defer s2.Close()
	if id := s2.AllocID("oid"); id != 6 {
		t.Errorf("sequence after reopen = %d, want 6", id)
	}
}

func TestStoreMetaOps(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	defer s.Close()
	s.MetaSet("class/landcover", []byte("def1"))
	s.MetaSet("class/ndvi", []byte("def2"))
	s.MetaSet("other", []byte("x"))
	keys := s.MetaKeys("class/")
	if len(keys) != 2 || keys[0] != "class/landcover" || keys[1] != "class/ndvi" {
		t.Errorf("MetaKeys = %v", keys)
	}
	// Mutating the returned slice must not affect the store.
	v, _ := s.MetaGet("other")
	v[0] = 'y'
	v2, _ := s.MetaGet("other")
	if string(v2) != "x" {
		t.Error("MetaGet returned aliased storage")
	}
}

func TestStoreBadHeapName(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	defer s.Close()
	for _, name := range []string{"", "a/b", "a b", `a\b`} {
		if _, err := insert(s, name, []byte("x")); err == nil {
			t.Errorf("heap name %q should be rejected", name)
		}
	}
}

func TestStoreDeleteFreesSpaceForReuse(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	defer s.Close()
	rec := make([]byte, 3000)
	var rids []RID
	for i := 0; i < 10; i++ {
		rid, err := insert(s, "reuse", rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pagesBefore, _ := s.HeapStats("reuse")
	for _, rid := range rids {
		if err := remove(s, "reuse", rid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := insert(s, "reuse", rec); err != nil {
			t.Fatal(err)
		}
	}
	pagesAfter, live := s.HeapStats("reuse")
	if live != 10 {
		t.Errorf("live = %d", live)
	}
	if pagesAfter > pagesBefore {
		t.Errorf("space not reused: %d pages grew to %d", pagesBefore, pagesAfter)
	}
}

// TestHeapPlacementReadsNoLingeringPages: pages with too little room for
// the record at hand stay in the free hint (a smaller record may still
// fit), so placement must pass them over from memory. Visiting each one
// through the 64-frame pool made buffer misses grow with pages².
func TestHeapPlacementReadsNoLingeringPages(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		if _, err := insert(s, "tasks", make([]byte, 100+rng.Intn(31))); err != nil {
			t.Fatal(err)
		}
	}
	_, misses := s.BufferStats() // before HeapStats, which reads every page
	pages, live := s.HeapStats("tasks")
	if live != 50_000 {
		t.Fatalf("live = %d", live)
	}
	if misses > uint64(2*pages) {
		t.Errorf("%d buffer misses placing records on %d pages; want O(pages)", misses, pages)
	}
}

// TestHeapDeleteInvalidatesRememberedRoom: a page remembered as too full
// takes records again once a delete has made room on it.
func TestHeapDeleteInvalidatesRememberedRoom(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	big := make([]byte, 3000)
	first, err := insert(s, "h", big)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // two to a page: pages 0, 1 and 2 are full
		if _, err := insert(s, "h", big); err != nil {
			t.Fatal(err)
		}
	}
	if err := remove(s, "h", first); err != nil {
		t.Fatal(err)
	}
	rid, err := insert(s, "h", big)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != first.Page {
		t.Errorf("record placed on page %d, want the freed page %d", rid.Page, first.Page)
	}
}

// TestHeapRememberedRoomExact: under small inserts and deletes, every
// page's remembered room is what a walk of its slot array gives, and
// every slot below its cursor is live — the figures plan keeps, by
// arithmetic, so that it does not walk the slot array per record.
func TestHeapRememberedRoomExact(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	h, err := s.heap("h")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	var rids []RID
	for step := 0; step < 20_000; step++ {
		if len(rids) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(rids))
			if err := remove(s, "h", rids[i]); err != nil {
				t.Fatal(err)
			}
			rids = slices.Delete(rids, i, i+1)
		} else {
			rid, err := insert(s, "h", make([]byte, 1+rng.Intn(60)))
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		if step%97 != 0 {
			continue
		}
		for _, hint := range h.freeHint {
			p, err := h.pool.get(hint.no)
			if err != nil {
				t.Fatal(err)
			}
			if hint.room != roomUnknown && hint.room != p.room() {
				t.Fatalf("step %d: page %d remembered room %d, has %d", step, hint.no, hint.room, p.room())
			}
			if dead := firstDead(p); dead >= 0 && dead < hint.next {
				t.Fatalf("step %d: page %d cursor at slot %d, past dead slot %d", step, hint.no, hint.next, dead)
			}
		}
	}
}
