package gaea

// Tests for load groups: a session records ONE data_load task per class
// and note of its creates, and every lineage query still answers for
// every created object.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/sptemp"
	"gaea/internal/value"
)

// defineRainCopy registers a derived class and a process over rain, so
// load-group members can have descendants.
func defineRainCopy(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.DefineClass(&catalog.Class{
		Name: "rain_copy", Kind: catalog.KindDerived, DerivedBy: "copy_rain",
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.DefineProcess(`
DEFINE PROCESS copy_rain (
  OUTPUT o rain_copy
  ARGUMENT ( x rain )
  TEMPLATE {
    MAPPINGS:
      o.mm = x.mm;
      o.spatialextent = x.spatialextent;
  }
)`); err != nil {
		t.Fatal(err)
	}
}

// taskRecords counts the live records of the task log.
func taskRecords(k *Kernel) int {
	_, n := k.Store.HeapStats("tasks")
	return n
}

// TestSessionLoadGroupLineage: a 1,024-create session leaves at most two
// task records, and Producer, Explain and Descendants answer for its
// first, a middle and its last object — before and after a reopen.
func TestSessionLoadGroupLineage(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	k, err := Open(dir, Options{NoSync: true, User: "loader"})
	if err != nil {
		t.Fatal(err)
	}
	defineRainClass(t, k)
	defineRainCopy(t, k)
	s := k.Begin(ctx)
	oids := make([]object.OID, 1024)
	for i := range oids {
		if oids[i], err = s.Create(rainObject(float64(i), float64(i)*20), "gauge network"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := taskRecords(k); n > 2 {
		t.Fatalf("1,024 creates left %d task records, want at most 2", n)
	}
	probes := []object.OID{oids[0], oids[511], oids[1023]}
	derived := make(map[object.OID]object.OID)
	for _, oid := range probes {
		tk, _, err := k.RunProcess(ctx, "copy_rain", map[string][]object.OID{"x": {oid}}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		derived[oid] = tk.Output
	}
	check := func(k *Kernel) {
		t.Helper()
		for _, oid := range probes {
			prod, ok := k.Tasks.Producer(oid)
			if !ok || prod.Process != "data_load" || prod.User != "loader" || prod.Note != "gauge network" || prod.OutClass != "rain" {
				t.Fatalf("producer of %d = %+v, %v", oid, prod, ok)
			}
			if n := prod.NumOutputs(); n != 1024 {
				t.Errorf("load task of %d lists %d outputs, want 1024", oid, n)
			}
			want := fmt.Sprintf("object %d (rain) <- task %d: data_load v0 by loader\n", oid, prod.ID)
			if got := k.Explain(oid); got != want {
				t.Errorf("explain(%d) = %q, want %q", oid, got, want)
			}
			if got := k.Explain(derived[oid]); !strings.Contains(got, "    "+want) {
				t.Errorf("explain of %d's copy does not reach its load: %q", oid, got)
			}
			if got := k.Tasks.Descendants(oid); len(got) != 1 || got[0] != derived[oid] {
				t.Errorf("descendants(%d) = %v, want [%d]", oid, got, derived[oid])
			}
			if got := k.Tasks.Ancestors(derived[oid]); len(got) != 1 || got[0] != oid {
				t.Errorf("ancestors(%d) = %v, want [%d]", derived[oid], got, oid)
			}
		}
		if _, ok := k.Tasks.Producer(oids[1023] + 1000); ok {
			t.Error("an OID outside the group has a producer")
		}
	}
	check(k)
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	check(k2)
}

// TestSessionLoadGroupPerClassAndNote: creates of mixed classes and mixed
// notes get one task per (class, note), each listing exactly its own.
func TestSessionLoadGroupPerClassAndNote(t *testing.T) {
	ctx := context.Background()
	k := openKernel(t)
	defineRainClass(t, k)
	if err := k.DefineClass(&catalog.Class{
		Name: "snow", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}); err != nil {
		t.Fatal(err)
	}
	before := taskRecords(k)
	type key struct{ class, note string }
	keys := []key{{"rain", "a"}, {"snow", "a"}, {"rain", "b"}, {"rain", ""}}
	members := make(map[key][]object.OID)
	s := k.Begin(ctx)
	for i := 0; i < 40; i++ {
		kk := keys[i%len(keys)]
		o := rainObject(float64(i), float64(i)*20)
		o.Class = kk.class
		oid, err := s.Create(o, kk.note)
		if err != nil {
			t.Fatal(err)
		}
		members[kk] = append(members[kk], oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := taskRecords(k) - before; got != len(keys) {
		t.Errorf("%d task records for %d (class, note) groups", got, len(keys))
	}
	for kk, oids := range members {
		for _, oid := range oids {
			prod, ok := k.Tasks.Producer(oid)
			if !ok || prod.OutClass != kk.class || prod.Note != kk.note {
				t.Fatalf("producer of %d (%v) = %+v, %v", oid, kk, prod, ok)
			}
			if got := prod.Outputs(); fmt.Sprint(got) != fmt.Sprint(oids) {
				t.Fatalf("load task of %v lists %v, want %v", kk, got, oids)
			}
		}
	}
}

// TestSessionLoadGroupInterleavedOIDs: two sessions reserving OIDs in turn
// each get a group of non-contiguous runs; both round-trip a reopen.
func TestSessionLoadGroupInterleavedOIDs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	k, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defineRainClass(t, k)
	sessions := []*Session{k.Begin(ctx), k.Begin(ctx)}
	notes := []string{"left", "right"}
	var oids [2][]object.OID
	for i := 0; i < 600; i++ {
		// Runs of one, two and three OIDs per turn.
		for n := 0; n <= i%3; n++ {
			w := i % 2
			oid, err := sessions[w].Create(rainObject(float64(i), float64(len(oids[0])+len(oids[1]))*20), notes[w])
			if err != nil {
				t.Fatal(err)
			}
			oids[w] = append(oids[w], oid)
		}
	}
	for _, s := range sessions {
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := taskRecords(k); n != 2 {
		t.Errorf("%d task records for two sessions", n)
	}
	check := func(k *Kernel) {
		t.Helper()
		for w := range oids {
			for _, oid := range oids[w] {
				prod, ok := k.Tasks.Producer(oid)
				if !ok || prod.Note != notes[w] {
					t.Fatalf("producer of %d = %+v, %v; want the %q load", oid, prod, ok, notes[w])
				}
			}
			prod, _ := k.Tasks.Producer(oids[w][0])
			if got := prod.Outputs(); fmt.Sprint(got) != fmt.Sprint(oids[w]) {
				t.Fatalf("the %q load lists %d outputs, want the session's %d", notes[w], len(got), len(oids[w]))
			}
		}
	}
	check(k)
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	check(k2)
}

// TestSessionLoadGroupDeleteForgetsOneMember: deleting one object of a
// load group drops that object's producer entry and nobody else's.
func TestSessionLoadGroupDeleteForgetsOneMember(t *testing.T) {
	ctx := context.Background()
	k := openKernel(t)
	defineRainClass(t, k)
	s := k.Begin(ctx)
	var oids []object.OID
	for i := 0; i < 10; i++ {
		oid, err := s.Create(rainObject(float64(i), float64(i)*20), "net")
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, victim := range []object.OID{oids[4], oids[0], oids[9]} { // middle, first, last of a run
		if err := k.DeleteObject(ctx, victim); err != nil {
			t.Fatal(err)
		}
		if _, ok := k.Tasks.Producer(victim); ok {
			t.Errorf("deleted object %d still has a producer", victim)
		}
	}
	for _, oid := range oids {
		_, ok := k.Tasks.Producer(oid)
		if want := k.Objects.Exists(oid); ok != want {
			t.Errorf("producer of %d present=%v, object exists=%v", oid, ok, want)
		}
	}
}

// TestSessionLoadGroupTornTail: a crash that tears the WAL inside a
// session's commit group loses the group's objects AND its load task,
// never one without the other; earlier groups survive whole.
func TestSessionLoadGroupTornTail(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	k, err := Open(dir, Options{User: "crashy"}) // synced WAL
	if err != nil {
		t.Fatal(err)
	}
	defineRainClass(t, k)
	commit := func(note string, from int) []object.OID {
		s := k.Begin(ctx)
		var oids []object.OID
		for i := from; i < from+50; i++ {
			oid, err := s.Create(rainObject(float64(i), float64(i)*20), note)
			if err != nil {
				t.Fatal(err)
			}
			oids = append(oids, oid)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		return oids
	}
	kept := commit("kept", 0)
	walPath := filepath.Join(dir, "wal.log")
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lost := commit("lost", 50)
	// Crash: abandon the kernel without Close, then tear the last group
	// (the "lost" session's one WAL record) in the middle.
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, (before.Size()+after.Size())/2); err != nil {
		t.Fatal(err)
	}

	k2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer k2.Close()
	for _, oid := range kept {
		if _, err := k2.Objects.Get(oid); err != nil {
			t.Fatalf("object %d of the whole group: %v", oid, err)
		}
		if prod, ok := k2.Tasks.Producer(oid); !ok || prod.Note != "kept" {
			t.Fatalf("lineage of %d lost: %+v, %v", oid, prod, ok)
		}
	}
	for _, oid := range lost {
		if k2.Objects.Exists(oid) {
			t.Errorf("object %d of the torn group survived", oid)
		}
		if prod, ok := k2.Tasks.Producer(oid); ok {
			t.Errorf("torn group's load task survived for %d: %+v", oid, prod)
		}
	}
	if n := taskRecords(k2); n != 1 {
		t.Errorf("%d task records after recovery, want the kept group's 1", n)
	}
}

// TestOpenPerObjectTaskLog: a directory written before load groups — one
// task record per created object — opens, and every object explains
// exactly as the writing commit rendered it (explain.golden).
func TestOpenPerObjectTaskLog(t *testing.T) {
	src := filepath.Join("testdata", "per-object-tasks")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(filepath.Join(src, "explain.golden"))
	if err != nil {
		t.Fatal(err)
	}
	k, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	var got strings.Builder
	for oid := object.OID(1); oid <= 7; oid++ {
		fmt.Fprintf(&got, "== %d\n%s", oid, k.Explain(oid))
		prod, ok := k.Tasks.Producer(oid)
		if !ok || prod.Output != oid || prod.NumOutputs() != 1 {
			t.Errorf("producer of %d = %+v, %v", oid, prod, ok)
		}
	}
	if got.String() != string(golden) {
		t.Errorf("explain drifted from the writing commit:\ngot:\n%swant:\n%s", got.String(), golden)
	}
	if got := k.Tasks.Descendants(3); len(got) != 1 || got[0] != 7 {
		t.Errorf("descendants(3) = %v, want [7]", got)
	}
	// New loads land beside the old records.
	oid, err := k.CreateObject(context.Background(), rainObject(1, 5000), "new")
	if err != nil {
		t.Fatal(err)
	}
	if prod, ok := k.Tasks.Producer(oid); !ok || prod.Note != "new" {
		t.Errorf("producer of a new create = %+v, %v", prod, ok)
	}
}
