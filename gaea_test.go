package gaea

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gaea/internal/catalog"
	"gaea/internal/concept"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/task"
	"gaea/internal/value"
)

// openKernel opens a kernel in a temp dir with the Figure 3 schema.
func openKernel(t *testing.T) *Kernel {
	t.Helper()
	return openKernelOpts(t, Options{NoSync: true, User: "tester"})
}

func openKernelOpts(t *testing.T, opts Options) *Kernel {
	t.Helper()
	k, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { k.Close() })

	classes := []*catalog.Class{
		{
			Name: "landsat_tm", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{
				{Name: "band", Type: value.TypeString},
				{Name: "data", Type: value.TypeImage},
			},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
		{
			Name: "landcover", Kind: catalog.KindDerived, DerivedBy: "unsupervised_classification",
			Attrs: []catalog.Attr{
				{Name: "numclass", Type: value.TypeInt},
				{Name: "data", Type: value.TypeImage},
			},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
	}
	for _, c := range classes {
		if err := k.DefineClass(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.DefineProcess(`
DEFINE PROCESS unsupervised_classification (
  OUTPUT C20 landcover
  ARGUMENT ( SETOF bands landsat_tm )
  TEMPLATE {
    ASSERTIONS:
      card ( bands ) = 3;
      common ( bands.spatialextent );
      common ( bands.timestamp );
    MAPPINGS:
      C20.data = unsuperclassify ( composite ( bands.data ), 12 );
      C20.numclass = 12;
      C20.spatialextent = ANYOF bands.spatialextent;
      C20.timestamp = ANYOF bands.timestamp;
  }
)`); err != nil {
		t.Fatal(err)
	}
	return k
}

func loadScene(t *testing.T, k *Kernel, day sptemp.AbsTime, year int) []object.OID {
	t.Helper()
	l := raster.NewLandscape(13)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 10, Cols: 10, DayOfYear: 160, Year: year, Noise: 0.01}
	var oids []object.OID
	for _, b := range []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR} {
		img, err := l.GenerateBand(spec, b)
		if err != nil {
			t.Fatal(err)
		}
		oid, err := k.CreateObject(context.Background(), &object.Object{
			Class: "landsat_tm",
			Attrs: map[string]value.Value{
				"band": value.String_(b.String()),
				"data": value.Image{Img: img},
			},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 300, 300), day),
		}, "EOSAT tape 42")
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	return oids
}

func TestKernelEndToEnd(t *testing.T) {
	k := openKernel(t)
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)

	// The Gaea pitch: ask for landcover; none stored; the kernel derives
	// it via the Petri planner.
	pred := Request{Class: "landcover", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}
	ok, err := k.CanDerive("landcover", pred.Pred)
	if err != nil || !ok {
		t.Fatalf("CanDerive = %v, %v", ok, err)
	}
	res, err := k.Query(context.Background(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OIDs) != 1 || res.How[0] != Derive {
		t.Fatalf("query = %+v", res)
	}
	// Lineage includes the tape note.
	explain := k.Explain(res.OIDs[0])
	if !strings.Contains(explain, "unsupervised_classification") || !strings.Contains(explain, "data_load") {
		t.Errorf("explain = %s", explain)
	}
	// Reproduction.
	prod, _ := k.Tasks.Producer(res.OIDs[0])
	_, same, err := k.Reproduce(context.Background(), prod.ID)
	if err != nil || !same {
		t.Errorf("reproduce = %v, %v", same, err)
	}
	// Stats string mentions all managers.
	stats := k.Stats()
	for _, want := range []string{"classes=2", "objects=", "tasks="} {
		if !strings.Contains(stats, want) {
			t.Errorf("stats = %q", stats)
		}
	}
	_ = scene
}

func TestKernelPersistence(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.DefineClass(&catalog.Class{
		Name: "rain", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.DefineConcept(&concept.Concept{Name: "rainfall", Classes: []string{"rain"}}); err != nil {
		t.Fatal(err)
	}
	oid, err := k.CreateObject(context.Background(), &object.Object{
		Class:  "rain",
		Attrs:  map[string]value.Value{"mm": value.Float(250)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 10, 10)),
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	k2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	obj, err := k2.Objects.Get(oid)
	if err != nil || obj.Attrs["mm"].(value.Float) != 250 {
		t.Errorf("reload object = %+v, %v", obj, err)
	}
	if _, err := k2.Concepts.Get("rainfall"); err != nil {
		t.Errorf("concept lost: %v", err)
	}
	res, err := k2.Query(context.Background(), Request{Concept: "rainfall", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}})
	if err != nil || len(res.OIDs) != 1 {
		t.Errorf("concept query after reopen = %+v, %v", res, err)
	}
}

// loadSceneTile stores one scene in a disjoint spatial tile.
func loadSceneTile(t *testing.T, k *Kernel, tile int) sptemp.Box {
	t.Helper()
	l := raster.NewLandscape(uint64(40 + tile))
	off := float64(tile * 1000)
	spec := raster.SceneSpec{OriginX: off, OriginY: 0, CellSize: 30, Rows: 10, Cols: 10, DayOfYear: 160, Year: 1986, Noise: 0.01}
	day := sptemp.Date(1986, 6, 9)
	box := sptemp.NewBox(off, 0, off+300, 300)
	for _, b := range []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR} {
		img, err := l.GenerateBand(spec, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.CreateObject(context.Background(), &object.Object{
			Class: "landsat_tm",
			Attrs: map[string]value.Value{
				"band": value.String_(b.String()),
				"data": value.Image{Img: img},
			},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, box, day),
		}, ""); err != nil {
			t.Fatal(err)
		}
	}
	return box
}

// TestKernelConcurrentQueries drives the concurrent derivation engine end
// to end: many goroutines querying (and thereby deriving) disjoint tiles
// plus repeated queries on a shared tile, all against one kernel.
func TestKernelConcurrentQueries(t *testing.T) {
	k := openKernel(t)
	const tiles = 6
	boxes := make([]sptemp.Box, tiles)
	for i := 0; i < tiles; i++ {
		boxes[i] = loadSceneTile(t, k, i)
	}
	const clients = 12 // two clients per tile: one derives, one joins via single-flight
	var wg sync.WaitGroup
	errs := make([]error, clients)
	oids := make([]object.OID, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pred := Request{Class: "landcover", Pred: sptemp.TimelessExtent(sptemp.DefaultFrame, boxes[c%tiles])}
			res, err := k.Query(context.Background(), pred)
			if err != nil {
				errs[c] = err
				return
			}
			if len(res.OIDs) == 0 {
				t.Errorf("client %d: empty result", c)
				return
			}
			oids[c] = res.OIDs[0]
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	// Both clients of a tile must agree on the derived object.
	for c := tiles; c < clients; c++ {
		if oids[c] != oids[c-tiles] {
			t.Errorf("tile %d: clients saw objects %d and %d", c-tiles, oids[c-tiles], oids[c])
		}
	}
	// Exactly one derivation per tile (single-flight): `tiles` landcover
	// objects exist.
	if got := k.Objects.Count("landcover"); got != tiles {
		t.Errorf("landcover objects = %d, want %d", got, tiles)
	}
}

func TestKernelExplainQueryAndNet(t *testing.T) {
	k := openKernel(t)
	loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	text, err := k.ExplainQuery(context.Background(), Request{Class: "landcover", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}})
	if err != nil || !strings.Contains(text, "derivable") {
		t.Errorf("ExplainQuery = %q, %v", text, err)
	}
	n, err := k.Net()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n.String(), "unsupervised_classification: landsat_tm(>=3) -> landcover") {
		t.Errorf("net = %s", n)
	}
}

// replaceBand overwrites one stored band object with imagery from a
// different year, through the kernel's update path.
func replaceBand(t *testing.T, k *Kernel, oid object.OID, b raster.Band, year int) {
	t.Helper()
	l := raster.NewLandscape(13)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 10, Cols: 10, DayOfYear: 160, Year: year, Noise: 0.05}
	img, err := l.GenerateBand(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	o, err := k.Objects.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	o.Attrs["data"] = value.Image{Img: img}
	if err := k.UpdateObject(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

func TestKernelLazyUpdateRederivesOnQuery(t *testing.T) {
	k := openKernel(t) // default policy: lazy
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	pred := Request{Class: "landcover", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}
	res1, err := k.Query(context.Background(), pred)
	if err != nil || len(res1.OIDs) != 1 {
		t.Fatalf("initial derivation = %+v, %v", res1, err)
	}
	lc := res1.OIDs[0]
	prod1, _ := k.Tasks.Producer(lc)

	// Update a base band: the derived landcover goes stale.
	replaceBand(t, k, scene[0], raster.BandRed, 1999)
	if got := k.Stale(); len(got) != 1 || got[0] != lc {
		t.Fatalf("stale after update = %v, want [%d]", got, lc)
	}

	// A lazy query transparently re-derives in place and returns fresh
	// data under the same OID.
	res2, err := k.Query(context.Background(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.OIDs) != 1 || res2.OIDs[0] != lc {
		t.Fatalf("lazy re-derivation = %+v, want OID %d", res2, lc)
	}
	if res2.How[0] != Derive {
		t.Errorf("how = %v, want derive", res2.How[0])
	}
	if len(k.Stale()) != 0 {
		t.Errorf("still stale after lazy query: %v", k.Stale())
	}
	prod2, _ := k.Tasks.Producer(lc)
	if prod2.ID == prod1.ID {
		t.Error("producer task unchanged: the object was not recomputed")
	}
	// Subsequent queries retrieve the refreshed object directly.
	res3, err := k.Query(context.Background(), pred)
	if err != nil || res3.How[0] != Retrieve || res3.OIDs[0] != lc {
		t.Errorf("follow-up query = %+v, %v", res3, err)
	}
	// Stats reports the deriv counters.
	stats := k.Stats()
	for _, want := range []string{"deriv[", "stale=0", "invalidated=1", "refreshed=1", "policy=lazy"} {
		if !strings.Contains(stats, want) {
			t.Errorf("stats missing %q: %s", want, stats)
		}
	}
}

func TestKernelEagerUpdateRefreshesWithoutQuery(t *testing.T) {
	k := openKernelOpts(t, Options{NoSync: true, User: "tester", RefreshPolicy: EagerRefresh})
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	tk, _, err := k.RunProcess(context.Background(), "unsupervised_classification",
		map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prod1, _ := k.Tasks.Producer(tk.Output)

	replaceBand(t, k, scene[1], raster.BandNIR, 1999)

	// No query: the background refresher recomputes on its own.
	deadline := time.Now().Add(5 * time.Second)
	for len(k.Stale()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("eager refresher did not run: stale=%v", k.Stale())
		}
		time.Sleep(5 * time.Millisecond)
	}
	prod2, _ := k.Tasks.Producer(tk.Output)
	if prod2.ID == prod1.ID {
		t.Error("output was not recomputed by the eager refresher")
	}
	if !strings.Contains(k.Stats(), "policy=eager") {
		t.Errorf("stats = %s", k.Stats())
	}
}

func TestKernelManualPolicyFlagsStale(t *testing.T) {
	k := openKernelOpts(t, Options{NoSync: true, User: "tester", RefreshPolicy: ManualRefresh})
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	pred := Request{Class: "landcover", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}
	res1, err := k.Query(context.Background(), pred)
	if err != nil {
		t.Fatal(err)
	}
	lc := res1.OIDs[0]

	replaceBand(t, k, scene[2], raster.BandSWIR, 1999)

	// Manual: the stale object is served, flagged, until RefreshStale.
	res2, err := k.Query(context.Background(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.OIDs) != 1 || res2.OIDs[0] != lc || res2.How[0] != Retrieve {
		t.Fatalf("manual query = %+v", res2)
	}
	if len(res2.Stale) != 1 || !res2.Stale[0] {
		t.Fatalf("stale flag = %v, want [true]", res2.Stale)
	}
	n, err := k.RefreshStale(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("RefreshStale = %d, %v", n, err)
	}
	res3, err := k.Query(context.Background(), pred)
	if err != nil || res3.Stale != nil || len(k.Stale()) != 0 {
		t.Fatalf("after refresh: res=%+v stale=%v err=%v", res3, k.Stale(), err)
	}
}

// defineSmooth adds a second derivation level over landcover, so a task
// can have a *derived* (and thus stale-able) input.
func defineSmooth(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.DefineClass(&catalog.Class{
		Name: "landcover_smooth", Kind: catalog.KindDerived, DerivedBy: "smooth",
		Attrs: []catalog.Attr{
			{Name: "numclass", Type: value.TypeInt},
			{Name: "data", Type: value.TypeImage},
		},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.DefineProcess(`
DEFINE PROCESS smooth (
  OUTPUT o landcover_smooth
  ARGUMENT ( x landcover )
  TEMPLATE {
    MAPPINGS:
      o.data = scale_offset ( x.data, 1, 0 );
      o.numclass = x.numclass;
      o.spatialextent = x.spatialextent;
      o.timestamp = x.timestamp;
  }
)`); err != nil {
		t.Fatal(err)
	}
}

func TestKernelReproduceAfterInputUpdate(t *testing.T) {
	k := openKernel(t)
	defineSmooth(t, k)
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	classify, _, err := k.RunProcess(context.Background(), "unsupervised_classification",
		map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	smooth, _, err := k.RunProcess(context.Background(), "smooth",
		map[string][]object.OID{"x": {classify.Output}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: both reproduce exactly while everything is fresh.
	if _, same, err := k.Reproduce(context.Background(), classify.ID); err != nil || !same {
		t.Fatalf("fresh reproduce classify = %v, %v", same, err)
	}
	if _, same, err := k.Reproduce(context.Background(), smooth.ID); err != nil || !same {
		t.Fatalf("fresh reproduce smooth = %v, %v", same, err)
	}

	// Update a base band. The classification's inputs are base data —
	// the update is the new truth, so reproduction runs but reports a
	// mismatch against the recorded output.
	replaceBand(t, k, scene[0], raster.BandRed, 1999)
	if _, same, err := k.Reproduce(context.Background(), classify.ID); err != nil {
		t.Fatalf("reproduce after base update: %v", err)
	} else if same {
		t.Error("reproduction over updated base data reported an exact match")
	}

	// The smooth task's input (the landcover) is stale: reproduction
	// must refuse rather than silently reproduce over stale state.
	if !k.Deriv.IsStale(classify.Output) {
		t.Fatal("landcover should be stale after the base update")
	}
	if _, _, err := k.Reproduce(context.Background(), smooth.ID); !errors.Is(err, task.ErrStaleInput) {
		t.Fatalf("reproduce with stale input = %v, want ErrStaleInput", err)
	}
	// After refreshing, reproduction works again.
	if _, err := k.RefreshStale(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := k.Reproduce(context.Background(), smooth.ID); err != nil {
		t.Fatalf("reproduce after RefreshStale: %v", err)
	}
}

// TestReproduceRecordsNothing checks that Reproduce is a read: re-running
// recorded tasks adds no task, object, WAL byte, blob byte or fsync, the
// memo keeps answering with the original output, and a base update
// invalidates only the original derivations.
func TestReproduceRecordsNothing(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			ctx := context.Background()
			k := openKernelOpts(t, Options{NoSync: !durable, User: "tester"})
			defineSmooth(t, k)
			scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
			in := map[string][]object.OID{"bands": scene}
			classify, _, err := k.RunProcess(ctx, "unsupervised_classification", in, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			smooth, _, err := k.RunProcess(ctx, "smooth", map[string][]object.OID{"x": {classify.Output}}, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tasks, stats := len(k.Tasks.All()), k.Stats()
			for i := 0; i < 3; i++ {
				for _, id := range []task.ID{classify.ID, smooth.ID} {
					wal, blobs, syncs := k.Store.WALBytes(), blobLogBytes(t, k), walSyncs(k)
					r, same, err := k.Reproduce(ctx, id)
					if err != nil || !same {
						t.Fatalf("reproduce task %d = %v, %v", id, same, err)
					}
					if r.ID != 0 || r.Output != 0 {
						t.Errorf("reproduction of task %d returned recorded task %d, output %d", id, r.ID, r.Output)
					}
					if w, b, s := k.Store.WALBytes(), blobLogBytes(t, k), walSyncs(k); w != wal || b != blobs || s != syncs {
						t.Errorf("reproduce task %d moved WAL bytes %d→%d, blob-log bytes %d→%d, WAL syncs %d→%d", id, wal, w, blobs, b, syncs, s)
					}
				}
			}
			if n := len(k.Tasks.All()); n != tasks {
				t.Errorf("%d tasks after 6 reproductions, want %d", n, tasks)
			}
			if s := k.Stats(); s != stats {
				t.Errorf("stats moved:\n  before %s\n  after  %s", stats, s)
			}
			again, reused, err := k.RunProcess(ctx, "unsupervised_classification", in, RunOptions{})
			if err != nil || !reused || again.Output != classify.Output {
				t.Errorf("repeat run = output %d (reused %v, %v), want memoised output %d", again.Output, reused, err, classify.Output)
			}
			replaceBand(t, k, scene[0], raster.BandRed, 1999)
			if n := len(k.Stale()); n != 2 {
				t.Errorf("%d objects stale after a band update, want 2", n)
			}
			if n, err := k.RefreshStale(ctx); err != nil || n != 2 {
				t.Errorf("RefreshStale = %d, %v; want 2", n, err)
			}
		})
	}
}

// blobLogBytes is the size of the kernel's blob log segments on disk.
func blobLogBytes(tb testing.TB, k *Kernel) int64 {
	tb.Helper()
	segs, err := os.ReadDir(filepath.Join(k.dir, "blobs"))
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, s := range segs {
		fi, err := s.Info()
		if err != nil {
			tb.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// walSyncs counts the WAL fsyncs since the kernel opened.
func walSyncs(k *Kernel) int64 { return k.Metrics.Snapshot().Gauges["storage_wal_syncs_total"] }

func TestKernelDeleteObjectInvalidates(t *testing.T) {
	k := openKernel(t)
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	tk, _, err := k.RunProcess(context.Background(), "unsupervised_classification",
		map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.DeleteObject(context.Background(), scene[0]); err != nil {
		t.Fatal(err)
	}
	if !k.Deriv.IsStale(tk.Output) {
		t.Error("dependent should be stale after input deletion")
	}
	if k.Objects.Exists(scene[0]) {
		t.Error("object still exists after DeleteObject")
	}
}
