package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenIgnoresLeftoverMetaTmp: the meta.db.tmp of a snapshot write a
// crash cut short neither blocks Open nor replaces meta.db; and where it
// lies beside no data, with an empty blobs/, the directory is new.
func TestOpenIgnoresLeftoverMetaTmp(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if err := s.MetaSet("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "meta.db"))
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte("GMETA")
	if err := os.WriteFile(filepath.Join(dir, "meta.db.tmp"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s = openTestStore(t, dir)
	if v, ok := s.MetaGet("k"); !ok || string(v) != "v" {
		t.Errorf("meta k = %q, %v after reopen", v, ok)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "meta.db")); err != nil || !bytes.Equal(got, meta) {
		t.Errorf("meta.db changed at open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := t.TempDir()
	if err := os.Mkdir(filepath.Join(fresh, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fresh, "meta.db.tmp"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := openTestStore(t, fresh).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRefusesPreGroupRecords: a mutation logged as a record by
// itself, or a group without an epoch — what writers logged before every
// record was an epoch-stamped group — or a group holding a meta delete,
// op 4, which formats up to 5 could log, stops replay: nothing from it,
// or after it, is applied.
func TestReplayRefusesPreGroupRecords(t *testing.T) {
	lone := insertPayload("old", RID{}, []byte("lone"))
	for name, rec := range map[string][]byte{
		"lone insert":     lone,
		"lone meta set":   metaSetPayload("old/lone", []byte("1")),
		"unstamped group": groupPayload(false, 0, lone, metaSetPayload("old/group", []byte("1"))),
		"meta delete":     groupPayload(true, 4, metaSetPayload("old/group", []byte("1")), metaDelPayload("before")),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := openTestStore(t, dir).Close(); err != nil {
				t.Fatal(err)
			}
			log := frameRecord(nil, groupPayload(true, 3, metaSetPayload("before", []byte("1"))))
			log = frameRecord(log, rec)
			log = frameRecord(log, groupPayload(true, 4, metaSetPayload("after", []byte("1"))))
			if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openTestStore(t, dir)
			defer s.Close()
			if _, ok := s.MetaGet("before"); !ok {
				t.Error("the group before it was not replayed")
			}
			for _, k := range []string{"old/lone", "old/group", "after"} {
				if _, ok := s.MetaGet(k); ok {
					t.Errorf("meta %s was replayed", k)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "heap_old.db")); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("replay created heap old: %v", err)
			}
			if e := s.Epoch(); e != 3 {
				t.Errorf("epoch %d after replay, want 3", e)
			}
		})
	}
}

// Sub-entry payloads, as a group record holds them after their length
// words.

func insertPayload(heap string, rid RID, rec []byte) []byte {
	return appendInsert(nil, heap, rid, rec)
}

func deletePayload(heap string, rid RID) []byte { return appendDelete(nil, heap, rid) }

func metaSetPayload(key string, val []byte) []byte { return appendMetaSet(nil, key, val) }

// metaDelPayload is a meta delete, op 4, as formats up to 5 logged it;
// replay refuses it as any unknown op.
func metaDelPayload(key string) []byte { return appendString([]byte{4}, key) }
