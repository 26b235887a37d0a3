package gaea

// Tests for load groups: a session records ONE data_load task per class
// and note of its creates, and every lineage query still answers for
// every created object. Derivations commit their output with its task
// in one WAL group the same way, which the last tests check.

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/task"
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
// task records, and Producer, Explain and Consumers answer for its
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
			if got := k.Tasks.Consumers(oid); len(got) != 1 || !slices.Equal(got[0].Outputs(), []object.OID{derived[oid]}) {
				t.Errorf("consumers(%d) = %v, want one task yielding [%d]", oid, got, derived[oid])
			}
			if cp, ok := k.Tasks.Producer(derived[oid]); !ok || !slices.Equal(cp.Inputs["x"], []object.OID{oid}) {
				t.Errorf("producer of %d = %+v, %v, want input x = [%d]", derived[oid], cp, ok, oid)
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
// notes get one task per (class, note), each listing exactly its own,
// with staged creates deleted again left out.
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
	// Deleting staged creates drops them from their groups: each of these
	// is a run of one, so its run goes too.
	for _, i := range []int{0, 21, 39} {
		kk, at := keys[i%len(keys)], i/len(keys)
		if err := s.Delete(members[kk][at]); err != nil {
			t.Fatal(err)
		}
		members[kk] = slices.Delete(members[kk], at, at+1)
	}
	// A staged create keeps its class.
	moved := rainObject(1, 20)
	moved.OID, moved.Class = members[keys[0]][0], "snow"
	if err := s.Update(moved); err == nil {
		t.Errorf("a staged create of class rain was updated to class snow")
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

// walBoundaries lists the offsets in [from, to] of the WAL at path where
// a record starts or ends.
func walBoundaries(t *testing.T, path string, from, to int64) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int64
	for off := int64(0); off <= to; off += 8 + int64(binary.LittleEndian.Uint32(data[off:])) {
		if off >= from {
			bounds = append(bounds, off)
		}
		if off+8 > int64(len(data)) {
			break
		}
	}
	return bounds
}

// copyDir copies a database directory, blob segments included.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestDerivationTornTail: a derivation's output and its task record are
// one WAL group. A crash that cuts the log anywhere inside what a
// RunProcess, a refresh or a temporal interpolation wrote leaves the
// output if and only if its producer task — for a refresh, the new
// version of the output if and only if the refresh task.
func TestDerivationTornTail(t *testing.T) {
	ctx := context.Background()
	k := openKernelOpts(t, Options{User: "crashy", RefreshPolicy: ManualRefresh}) // synced WAL
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	loadScene(t, k, sptemp.Date(1986, 3, 15), 1986)
	walPath := filepath.Join(k.Dir(), "wal.log")
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// crashAt abandons the kernel: it copies the directory as a crash
	// would leave it, and for every cut of the copy's WAL inside
	// [from, to] — record boundaries and the middle of every record —
	// reopens a fresh copy cut there and runs check on it.
	crashAt := func(from, to int64, check func(k2 *Kernel, cut int64)) {
		t.Helper()
		crashed := copyDir(t, k.Dir())
		bounds := walBoundaries(t, filepath.Join(crashed, "wal.log"), from, to)
		if len(bounds) < 2 {
			t.Fatalf("no WAL records in [%d, %d]", from, to)
		}
		cuts := []int64{bounds[0]}
		for i := 1; i < len(bounds); i++ {
			cuts = append(cuts, (bounds[i-1]+bounds[i])/2, bounds[i])
		}
		for _, cut := range cuts {
			dir := copyDir(t, crashed)
			if err := os.Truncate(filepath.Join(dir, "wal.log"), cut); err != nil {
				t.Fatal(err)
			}
			k2, err := Open(dir, Options{NoSync: true, RefreshPolicy: ManualRefresh})
			if err != nil {
				t.Fatalf("cut at %d: recovery failed: %v", cut, err)
			}
			check(k2, cut)
			if err := k2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// RunProcess: the output and its task.
	from := walSize()
	classify, _, err := k.RunProcess(ctx, "unsupervised_classification",
		map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crashAt(from, walSize(), func(k2 *Kernel, cut int64) {
		prod, ok := k2.Tasks.Producer(classify.Output)
		if exists := k2.Objects.Exists(classify.Output); exists != (ok && prod.ID == classify.ID) {
			t.Errorf("RunProcess, cut at %d: output exists=%v, producer %+v, %v", cut, exists, prod, ok)
		}
	})

	// A refresh: the new version of the output and the refresh task.
	replaceBand(t, k, scene[0], raster.BandRed, 1999)
	old, err := k.Objects.Get(classify.Output)
	if err != nil {
		t.Fatal(err)
	}
	from = walSize()
	if n, err := k.RefreshStale(ctx); err != nil || n != 1 {
		t.Fatalf("RefreshStale = %d, %v", n, err)
	}
	refresh, ok := k.Tasks.Producer(classify.Output)
	if !ok || refresh.ID == classify.ID {
		t.Fatalf("producer after refresh = %+v, %v", refresh, ok)
	}
	crashAt(from, walSize(), func(k2 *Kernel, cut int64) {
		o, err := k2.Objects.Get(classify.Output)
		if err != nil {
			t.Fatalf("refresh, cut at %d: %v", cut, err)
		}
		newVersion := !value.Equal(o.Attrs["data"], old.Attrs["data"])
		_, taskErr := k2.Tasks.Get(refresh.ID)
		if newVersion != (taskErr == nil) {
			t.Errorf("refresh, cut at %d: new version=%v, refresh task: %v", cut, newVersion, taskErr)
		}
		if !newVersion && !k2.Deriv.IsStale(classify.Output) {
			t.Errorf("refresh, cut at %d: the old version lost its stale mark", cut)
		}
	})

	// A temporal interpolation: the interpolated object and its task.
	from = walSize()
	interp, err := k.Interp.Temporal(ctx, "landsat_tm", sptemp.Date(1986, 2, 14),
		sptemp.NewBox(0, 0, 300, 300), task.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crashAt(from, walSize(), func(k2 *Kernel, cut int64) {
		prod, ok := k2.Tasks.Producer(interp)
		if exists := k2.Objects.Exists(interp); exists != (ok && prod.Process == "temporal_interpolation") {
			t.Errorf("interpolation, cut at %d: output exists=%v, producer %+v, %v", cut, exists, prod, ok)
		}
	})
}

// TestDerivationWALRecords: every durable mutation is one WAL group, so
// a derivation costs one record (and, durably, one fsync) with its task
// record inside, and so does a refresh. An invalidation sweep writes
// nothing. Definitions change no heap and take no commit epoch.
func TestDerivationWALRecords(t *testing.T) {
	ctx := context.Background()
	k := openKernelOpts(t, Options{User: "tester", RefreshPolicy: ManualRefresh}) // synced WAL
	counter := func(name string) int64 { return k.Metrics.Snapshot().Gauges[name] }
	epochs := func() [2]uint64 { return [2]uint64{k.Objects.CurrentEpoch(), k.Store.Epoch()} }
	// records runs op and checks the WAL records and fsyncs it cost.
	records := func(what string, want int64, op func()) {
		t.Helper()
		appends, syncs := counter("storage_wal_appends_total"), counter("storage_wal_syncs_total")
		op()
		if got := counter("storage_wal_appends_total") - appends; got != want {
			t.Errorf("%s: %d WAL records, want %d", what, got, want)
		}
		if got := counter("storage_wal_syncs_total") - syncs; got != want {
			t.Errorf("%s: %d WAL fsyncs, want %d", what, got, want)
		}
	}

	before := epochs()
	records("DefineClass and DefineProcess", 2, func() { defineSmooth(t, k) })
	if after := epochs(); after != before {
		t.Errorf("definitions moved the epochs (object, storage) from %v to %v", before, after)
	}
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	loadScene(t, k, sptemp.Date(1986, 3, 15), 1986)

	var classify *task.Task
	records("RunProcess", 1, func() {
		var err error
		classify, _, err = k.RunProcess(ctx, "unsupervised_classification",
			map[string][]object.OID{"bands": scene}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
	})
	records("RunProcess over a derived input", 1, func() {
		if _, _, err := k.RunProcess(ctx, "smooth",
			map[string][]object.OID{"x": {classify.Output}}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	// The session's group alone: the sweep writes nothing.
	before = epochs()
	records("update sweeping two dependents", 1, func() { replaceBand(t, k, scene[0], raster.BandRed, 1999) })
	if len(k.Stale()) != 2 {
		t.Fatalf("stale after the sweep = %v, want classify's and smooth's outputs", k.Stale())
	}
	if after, want := epochs(), [2]uint64{before[0] + 1, before[1] + 1}; after != want {
		t.Errorf("update and sweep moved the epochs (object, storage) from %v to %v, want the update's one to %v", before, after, want)
	}
	// A refresh: the recompute's group alone.
	records("refresh", 1, func() {
		if err := k.Deriv.RefreshObject(ctx, classify.Output); err != nil {
			t.Fatal(err)
		}
	})
	records("refresh of the dependent", 1, func() {
		if n, err := k.RefreshStale(ctx); err != nil || n != 1 {
			t.Fatalf("RefreshStale = %d, %v", n, err)
		}
	})
	records("temporal interpolation", 1, func() {
		if _, err := k.Interp.Temporal(ctx, "landsat_tm", sptemp.Date(1986, 2, 14),
			sptemp.NewBox(0, 0, 300, 300), task.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
}
