package object

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gaea/internal/catalog"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

// Tests of the store's rows: the pointer-free version chain heads in OID
// order, the older versions and tombstones beside them, and what GC walks.

func defineGauge(t testing.TB, cat *catalog.Catalog) {
	t.Helper()
	if err := cat.Define(&catalog.Class{
		Name: "gauge", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// gauge is one reading on its own 10×10 tile, tiles 20 apart on a line.
func gauge(tile int) *Object {
	x := float64(tile) * 20
	return &Object{Class: "gauge", Attrs: map[string]value.Value{"mm": value.Float(float64(tile))},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10))}
}

// loadGauges stores gauges for tiles [0, n) in batches of per.
func loadGauges(t testing.TB, s *Store, n, per int) []OID {
	t.Helper()
	oids := make([]OID, 0, n)
	for start := 0; start < n; start += per {
		var ops BatchOps
		for tile := start; tile < min(start+per, n); tile++ {
			o := gauge(tile)
			if _, err := s.Reserve(o); err != nil {
				t.Fatal(err)
			}
			ops.Inserts = append(ops.Inserts, o)
			oids = append(oids, o.OID)
		}
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	return oids
}

func openGaugeStore(t testing.TB, opts storage.Options) *Store {
	t.Helper()
	s := newGaugeStore(t, t.TempDir(), opts)
	t.Cleanup(func() { s.st.Close() })
	return s
}

// newGaugeStore opens a store in dir with the gauge class defined; the
// caller closes it.
func newGaugeStore(t testing.TB, dir string, opts storage.Options) *Store {
	t.Helper()
	st, err := storage.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defineGauge(t, cat)
	s, err := Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGCVisitsOnlyChangedChains: of N stored objects, k are updated or
// deleted under a pin, so that no commit reclaims them; once it is
// released, a GC pass looks at exactly those k queued changes, and the
// next pass, with nothing changed since, at none.
func TestGCVisitsOnlyChangedChains(t *testing.T) {
	s := openGaugeStore(t, storage.Options{NoSync: true})
	const n = 3000
	oids := loadGauges(t, s, n, 1024)
	updated, deleted := oids[10:17], oids[2000:2005]
	pin := s.Pin()
	for _, oid := range updated {
		o := gauge(int(oid))
		o.OID = oid
		if err := s.Update(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, oid := range deleted {
		if err := s.Delete(oid); err != nil {
			t.Fatal(err)
		}
	}
	s.Unpin(pin)
	got, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	// Each update leaves its old version; each delete its live version and
	// the tombstone.
	if want := len(updated) + 2*len(deleted); got != want {
		t.Errorf("GC reclaimed %d versions, want %d", got, want)
	}
	if want := len(updated) + len(deleted); s.gcVisited != want {
		t.Errorf("GC visited %d queued changes to %d chains, want the %d changed", s.gcVisited, n, want)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if s.gcVisited != 0 {
		t.Errorf("a second GC visited %d chains, want 0", s.gcVisited)
	}
	if got, want := s.MVCC().LiveVersions, n-len(deleted); got != want {
		t.Errorf("live versions = %d, want %d", got, want)
	}
	if got := s.Count("gauge"); got != n-len(deleted) {
		t.Errorf("count = %d, want %d", got, n-len(deleted))
	}
}

// TestInterleavedSessionsCommitReversed: two sessions reserve OIDs in
// turn and the later one commits first, so every row of the other lands
// between rows already stored — inside full blocks, which split.
func TestInterleavedSessionsCommitReversed(t *testing.T) {
	s := openGaugeStore(t, storage.Options{NoSync: true})
	const each = 700 // several blocks' worth of rows
	var a, b BatchOps
	for i := range 2 * each {
		o := gauge(i)
		if _, err := s.Reserve(o); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			a.Inserts = append(a.Inserts, o)
		} else {
			b.Inserts = append(b.Inserts, o)
		}
	}
	for _, ops := range []BatchOps{b, a} {
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	var want []OID
	for i := range each {
		want = append(want, a.Inserts[i].OID, b.Inserts[i].OID)
	}
	if got := s.Members("gauge"); !slices.Equal(got, want) {
		t.Fatalf("members hold %d OIDs, want the %d reserved in order", len(got), len(want))
	}
	var rows []OID
	for r := range s.rows.Ascend(row{}) {
		rows = append(rows, r.oid)
	}
	if !slices.Equal(rows, want) {
		t.Fatalf("rows hold %d OIDs out of order", len(rows))
	}
	for i, oid := range want {
		o, err := s.Get(oid)
		if err != nil || o.Attrs["mm"] != value.Float(float64(i)) {
			t.Fatalf("Get(%d) = %v, %v; want tile %d", oid, o, err, i)
		}
		got, err := s.Query("gauge", gauge(i).Extent)
		if err != nil || !slices.Equal(got, []OID{oid}) {
			t.Fatalf("tile %d query = %v, %v; want [%d]", i, got, err, oid)
		}
	}
}

// TestReopenMatchesCommittedVersions drives random inserts, updates,
// moves and deletes with pinned epochs, commits that reclaim what pins
// release and the odd GC pass, and at random steps opens a second store
// over the same storage: for every OID ever created, at every pinned
// epoch and the newest, it must resolve the same version and extent as
// the store the commits built. Once the last pin goes, one commit leaves
// only the live objects' newest versions.
func TestReopenMatchesCommittedVersions(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { reopenMatchesCommitted(t, seed) })
	}
}

func reopenMatchesCommitted(t *testing.T, seed int64) {
	st, err := storage.Open(t.TempDir(), storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defineStation(t, cat)
	defineTestClasses(t, cat)
	s, err := Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	randBox := func() sptemp.Box {
		x, y := float64(r.Intn(12))*10, float64(r.Intn(4))*10
		return sptemp.NewBox(x, y, x+10, y+10)
	}
	randIv := func() sptemp.Interval {
		start := sptemp.AbsTime(r.Intn(6) * 100)
		return sptemp.Interval{Start: start, End: start + sptemp.AbsTime(r.Intn(300))}
	}
	live := make(map[OID]bool)
	var all []OID
	var pins []uint64
	same := func(step int) {
		t.Helper()
		s2, err := Open(st, cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, epoch := range append([]uint64{latestEpoch}, pins...) {
			for _, oid := range all {
				at, ok := s.resolve(oid, epoch)
				at2, ok2 := s2.resolve(oid, epoch)
				if ok != ok2 || at.sch != nil && at2.sch != nil && at.sch.cls.Name != at2.sch.cls.Name || !reflect.DeepEqual(at.v, at2.v) {
					t.Fatalf("step %d, oid %d at epoch %d: committed %+v %v, reopened %+v %v", step, oid, epoch, at.v, ok, at2.v, ok2)
				}
				ext, ok, err := s.extentAt(oid, epoch)
				ext2, ok2, err2 := s2.extentAt(oid, epoch)
				if err != nil || err2 != nil || ok != ok2 || ok && ext != ext2 {
					t.Fatalf("step %d, oid %d at epoch %d: committed extent %v %v %v, reopened %v %v %v",
						step, oid, epoch, ext, ok, err, ext2, ok2, err2)
				}
			}
		}
		if got, want := s2.Members("station"), s.Members("station"); !slices.Equal(got, want) {
			t.Fatalf("step %d: reopened members %v, committed %v", step, got, want)
		}
		if got, want := s2.MVCC().LiveVersions, s.MVCC().LiveVersions; got != want {
			t.Fatalf("step %d: reopened store holds %d versions, committed %d", step, got, want)
		}
	}
	for step := 0; step < 200; step++ {
		oids := slices.Sorted(maps.Keys(live))
		switch op := r.Intn(10); {
		case op < 3 || len(oids) == 0:
			o := stationAt(0, randBox(), randIv())
			if r.Intn(8) == 0 { // an image-bearing object: blob ids on the row's side
				o = sceneObject("red", float64(r.Intn(100)), sptemp.AbsTime(r.Intn(600)))
			}
			oid, err := s.Insert(o)
			if err != nil {
				t.Fatal(err)
			}
			live[oid] = true
			all = append(all, oid)
		case op < 8:
			oid := oids[r.Intn(len(oids))]
			o, err := s.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			if r.Intn(2) == 0 {
				o.Extent.Space = randBox()
			}
			if err := s.Update(o); err != nil {
				t.Fatal(err)
			}
		default:
			oid := oids[r.Intn(len(oids))]
			if err := s.Delete(oid); err != nil {
				t.Fatal(err)
			}
			delete(live, oid)
		}
		if r.Intn(15) == 0 {
			pins = append(pins, s.Pin())
		}
		if r.Intn(20) == 0 && len(pins) > 0 {
			s.Unpin(pins[0])
			pins = pins[1:]
			if r.Intn(2) == 0 { // else the next commit reclaims what the pin held
				if _, err := s.GC(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if r.Intn(12) == 0 {
			same(step)
		}
	}
	same(200)
	// Released pins hold nothing back from the next commit: it reclaims
	// every superseded version and every deleted chain, and leaves each
	// live object its newest version alone, on disk as in memory.
	for _, e := range pins {
		s.Unpin(e)
	}
	pins = nil
	oid, err := s.Insert(stationAt(0, randBox(), randIv()))
	if err != nil {
		t.Fatal(err)
	}
	live[oid] = true
	all = append(all, oid)
	if got := s.MVCC().LiveVersions; got != len(live) {
		t.Fatalf("%d versions stored after a commit with no pin, want the %d live objects' newest", got, len(live))
	}
	same(201)
}

// TestLoadAddsNoHeapObjects: storing objects of one version each adds
// next to no heap objects — rows and postings sit in blocks of hundreds.
// A pointer in a row, or a map or slice per object, would add one or more
// per object and fail this.
func TestLoadAddsNoHeapObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 65,536 objects")
	}
	// Four pool frames keep the storage engine's page cache out of the
	// count.
	s := openGaugeStore(t, storage.Options{NoSync: true, PoolFrames: 4})
	loadGauges(t, s, 1024, 1024) // the class's indexes exist before the count
	const n = 65536
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loadGauges(t, s, n, 1024)
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapObjects) - int64(before.HeapObjects)
	bytes := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d objects stored: heap objects %+d (%.4f per object), live heap %+d B (%.0f B per object)",
		n, grew, float64(grew)/n, bytes, float64(bytes)/n)
	if grew >= n/100 {
		t.Errorf("storing %d objects added %d heap objects, want fewer than %d", n, grew, n/100)
	}
	runtime.KeepAlive(s)
}

// BenchmarkStoreLoad stores 131,072 gauges in sessions of 1,024 creates
// into a fresh store without fsync: the set-up of the repository
// benchmark's gauge workloads, below the kernel. Each iteration's store
// is closed and its directory removed before the next, untimed, so a run
// holds one store at a time. (A b.N loop: under Go 1.24, b.Loop never
// ends once StartTimer runs inside it.)
func BenchmarkStoreLoad(b *testing.B) {
	for range b.N {
		b.StopTimer()
		dir := b.TempDir()
		s := newGaugeStore(b, dir, storage.Options{NoSync: true})
		b.StartTimer()
		loadGauges(b, s, 131072, 1024)
		b.StopTimer()
		if err := s.st.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// TestBatchOfClassRuns: one batch inserts objects of two classes in runs
// that alternate, and a second updates them in another order, moving
// some. Each object reads back as written, each class holds its own
// members, and a reopen from the heaps sees the same.
func TestBatchOfClassRuns(t *testing.T) {
	s := openGaugeStore(t, storage.Options{NoSync: true})
	if err := s.cat.Define(&catalog.Class{
		Name: "snow", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}); err != nil {
		t.Fatal(err)
	}
	classes := []string{"gauge", "gauge", "snow", "gauge", "snow", "snow", "gauge"}
	var ops BatchOps
	for tile, class := range classes {
		o := gauge(tile)
		o.Class = class
		if _, err := s.Reserve(o); err != nil {
			t.Fatal(err)
		}
		ops.Inserts = append(ops.Inserts, o)
	}
	if _, err := s.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	var ups BatchOps
	for _, i := range []int{4, 0, 2, 6, 5} {
		o := gauge(100 + i)
		o.OID, o.Class = ops.Inserts[i].OID, classes[i]
		if i%2 == 0 {
			o.Extent = ops.Inserts[i].Extent // stays where it is
		}
		ups.Updates = append(ups.Updates, o)
	}
	if _, err := s.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	want := map[OID]*Object{}
	for _, o := range ops.Inserts {
		want[o.OID] = o
	}
	for _, o := range ups.Updates {
		want[o.OID] = o
	}
	check := func(s *Store) {
		t.Helper()
		members := map[string][]OID{}
		for _, o := range ops.Inserts {
			members[o.Class] = append(members[o.Class], o.OID)
			got, err := s.Get(o.OID)
			if w := want[o.OID]; err != nil || got.Class != w.Class || !value.Equal(got.Attrs["mm"], w.Attrs["mm"]) || got.Extent != w.Extent {
				t.Fatalf("object %d = %+v, %v; want %+v", o.OID, got, err, w)
			}
		}
		for class, oids := range members {
			if got := s.Members(class); !slices.Equal(got, oids) {
				t.Errorf("class %s holds %v, want %v", class, got, oids)
			}
		}
	}
	check(s)
	s2, err := Open(s.st, s.cat)
	if err != nil {
		t.Fatal(err)
	}
	check(s2)
}
