package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

func TestBatchCommitAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Seed a record so the batch can also delete something.
	oldRID, err := insert(s, "a", []byte("old"))
	if err != nil {
		t.Fatal(err)
	}

	id := s.AllocID("widget")
	b := s.NewBatch()
	i0 := b.Insert("a", []byte("one"))
	i1 := b.Insert("b", []byte("two"))
	b.Delete("a", oldRID)
	b.MetaSet("k", []byte("v"))
	b.PinSequence("widget")
	rids, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 2 {
		t.Fatalf("rids = %v", rids)
	}
	if rec, err := s.Get("a", rids[i0]); err != nil || string(rec) != "one" {
		t.Fatalf("a record = %q, %v", rec, err)
	}
	if rec, err := s.Get("b", rids[i1]); err != nil || string(rec) != "two" {
		t.Fatalf("b record = %q, %v", rec, err)
	}
	if _, err := s.Get("a", oldRID); err == nil {
		t.Fatal("deleted record still readable")
	}
	if _, err := b.Commit(); err == nil {
		t.Fatal("second Commit should fail")
	}

	// Crash (no checkpoint): replay must reproduce the whole group and the
	// pinned sequence must not re-issue the reserved ID.
	s.closeFiles()
	s.wal.close()
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec, err := s2.Get("a", rids[i0]); err != nil || string(rec) != "one" {
		t.Fatalf("after replay: a record = %q, %v", rec, err)
	}
	if rec, err := s2.Get("b", rids[i1]); err != nil || string(rec) != "two" {
		t.Fatalf("after replay: b record = %q, %v", rec, err)
	}
	if _, err := s2.Get("a", oldRID); err == nil {
		t.Fatal("after replay: deleted record came back")
	}
	if v, ok := s2.MetaGet("k"); !ok || string(v) != "v" {
		t.Fatalf("after replay: meta = %q, %v", v, ok)
	}
	if next := s2.AllocID("widget"); next != id+1 {
		t.Fatalf("pinned sequence: next = %d (want %d)", next, id+1)
	}
}

// TestMVCCEpochStampSurvivesCrash: the commit epoch stamped into a WAL
// group header must be restored by replay, and the meta snapshot must
// carry it across checkpoints, so epochs stay monotonic over restarts.
func TestMVCCEpochStampSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("fresh store epoch = %d", got)
	}
	e := s.ReserveEpoch()
	if e != 1 {
		t.Fatalf("first reserved epoch = %d", e)
	}
	b := s.NewBatch()
	b.Insert("a", []byte("v1"))
	b.SetEpoch(e)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// A batch without an explicit stamp allocates the next epoch itself.
	b2 := s.NewBatch()
	b2.Insert("a", []byte("v2"))
	if _, err := b2.Commit(); err != nil {
		t.Fatal(err)
	}
	if b2.epoch != 2 || s.Epoch() != 2 {
		t.Fatalf("auto epoch = %d, store %d, want 2", b2.epoch, s.Epoch())
	}

	// Crash without checkpoint: the epoch comes back from the WAL group
	// headers.
	s.closeFiles()
	s.wal.close()
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Epoch(); got != 2 {
		t.Fatalf("epoch after WAL replay = %d, want 2", got)
	}
	// Clean close (checkpoint): the epoch comes back from the meta
	// snapshot even though the WAL is empty.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Epoch(); got != 2 {
		t.Fatalf("epoch after checkpointed reopen = %d, want 2", got)
	}
	if e := s3.ReserveEpoch(); e != 3 {
		t.Fatalf("next epoch after reopen = %d, want 3", e)
	}
}

func TestBatchTornTailDropsWholeGroup(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insert(s, "a", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	b := s.NewBatch()
	b.Insert("a", []byte("batch-1"))
	b.Insert("a", []byte("batch-2"))
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	s.closeFiles()
	s.wal.close()

	// Tear the tail of the batch record: the whole group must be dropped
	// on replay — never just its second insert.
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last entry's header and truncate into its payload.
	off := 0
	lastOff := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+8+n > len(data) {
			break
		}
		lastOff = off
		off += 8 + n
	}
	if err := os.WriteFile(walPath, data[:lastOff+12], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var recs []string
	err = s2.Scan("a", func(rid RID, rec []byte) bool {
		recs = append(recs, string(rec))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != "committed" {
		t.Fatalf("after torn batch: records = %v, want [committed] only", recs)
	}
}

// TestCommitPathAllocs: reserving an id from an existing sequence and
// staging a record allocate nothing per call (the staged slice's growth
// aside), and the ids still become durable with the batch that pins them.
func TestCommitPathAllocs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s.AllocID("oid")
	if n := testing.AllocsPerRun(1000, func() { s.AllocID("oid") }); n != 0 {
		t.Errorf("AllocID: %v allocations per call, want 0", n)
	}
	b := s.NewBatch()
	rec := []byte("record")
	if n := testing.AllocsPerRun(1000, func() { b.Insert("a", rec) }); n >= 1 {
		t.Errorf("Batch.Insert: %v allocations per call, want the staged slice's growth only", n)
	}
	b.PinSequence("oid")
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	want := s.AllocID("oid")
	// Crash without a checkpoint: the pin made every id reserved before
	// the commit durable; the one reserved after it was not, and is issued
	// again.
	s.closeFiles()
	s.wal.close()
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.AllocID("oid"); got != want {
		t.Errorf("after reopen the sequence issues %d, want %d", got, want)
	}
}

// TestAllocIDAfterMetaSet: a batch that sets or removes a sequence's
// meta key directly moves the counter AllocID issues from, and MetaGet
// reads the counter.
func TestAllocIDAfterMetaSet(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	s.AllocID("x")
	b := s.NewBatch()
	b.MetaSet("seq/x", binary.LittleEndian.AppendUint64(nil, 100))
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.AllocID("x"); got != 101 {
		t.Errorf("after a meta set to 100 the sequence issues %d, want 101", got)
	}
	if v, ok := s.MetaGet("seq/x"); !ok || binary.LittleEndian.Uint64(v) != 101 {
		t.Errorf("the sequence's meta value reads %x, %v; want its counter, 101", v, ok)
	}
	b = s.NewBatch()
	b.MetaDelete("seq/x")
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.MetaGet("seq/x"); ok {
		t.Error("the sequence's meta value reads back after its delete")
	}
	if got := s.AllocID("x"); got != 1 {
		t.Errorf("after a meta delete the sequence issues %d, want 1", got)
	}
}

// TestMetaOnlyBatch: a batch that changes only the meta map — a
// definition, a stale mark — is one WAL group that reserves no commit
// epoch, and its updates and removals replay in staging order.
func TestMetaOnlyBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insert(s, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	appends := s.wal.appends.Load()
	b := s.NewBatch()
	b.MetaSet("k", []byte("1"))
	b.MetaSet("gone", []byte("1"))
	b.MetaDelete("gone")
	b.MetaSet("k", []byte("2"))
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.MetaSet("m", []byte("3")); err != nil {
		t.Fatal(err)
	}
	if err := s.MetaDelete("m"); err != nil {
		t.Fatal(err)
	}
	if err := s.MetaDelete("never-set"); err != nil {
		t.Fatal(err)
	}
	if got := s.wal.appends.Load() - appends; got != 3 {
		t.Errorf("%d WAL records for three meta-only commits and a no-op removal, want 3", got)
	}
	if b.epoch != 0 || s.Epoch() != 1 {
		t.Errorf("meta-only batch epoch %d, store epoch %d; want 0 and the insert's 1", b.epoch, s.Epoch())
	}
	// Crash without a checkpoint: replay applies the groups in order.
	s.closeFiles()
	s.wal.close()
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for key, want := range map[string]string{"k": "2", "gone": "", "m": ""} {
		v, ok := s2.MetaGet(key)
		if string(v) != want || ok != (want != "") {
			t.Errorf("after replay %q = %q, %v; want %q", key, v, ok, want)
		}
	}
	if got := s2.ReserveEpoch(); got != 2 {
		t.Errorf("next epoch after replay = %d, want 2", got)
	}
}

// TestBatchFailedApplyBreaksStore: a group that is logged but cannot be
// applied fails its Commit with the cause, and every later commit that
// changes a page, and every checkpoint, fails with the same error, so
// the log keeps the group; a reopen replays it, and all of its records
// read back.
func TestBatchFailedApplyBreaksStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, PoolFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := 0; i < 10; i++ {
		rec := fmt.Sprintf("before-%d", i)
		if _, err := insert(s, "x", []byte(rec)); err != nil {
			t.Fatal(err)
		}
		want[rec] = true
	}
	cause := errors.New("injected apply failure")
	afterAppend = func() error { return cause }
	b := s.NewBatch()
	for i := 0; i < 40; i++ {
		rec := fmt.Sprintf("logged-%d-%s", i, bytes.Repeat([]byte{'.'}, 3000))
		b.Insert("x", []byte(rec))
		want[rec] = true
	}
	_, err = b.Commit()
	afterAppend = func() error { return nil }
	if !errors.Is(err, cause) {
		t.Fatalf("Commit of a group that cannot be applied: %v, want the cause wrapped", err)
	}
	if _, err2 := insert(s, "x", []byte("later")); err2 == nil || err2.Error() != err.Error() {
		t.Errorf("the next commit: %v, want %v", err2, err)
	}
	if err2 := s.Checkpoint(); err2 == nil || err2.Error() != err.Error() {
		t.Errorf("a checkpoint: %v, want %v", err2, err)
	}
	if err := s.MetaSet("k", []byte("v")); err != nil {
		t.Errorf("a meta-only commit changes no page, yet failed: %v", err)
	}
	s.closeFiles()
	s.wal.close()
	s2, err := Open(dir, Options{NoSync: true, PoolFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := map[string]bool{}
	if err := s2.Scan("x", func(rid RID, rec []byte) bool {
		got[string(rec)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Errorf("after a reopen the heap holds %d records, want the %d before and logged", len(got), len(want))
	}
	if v, ok := s2.MetaGet("k"); !ok || string(v) != "v" {
		t.Errorf("after a reopen meta k = %q, %v", v, ok)
	}
}
