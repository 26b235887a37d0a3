package gaea

// Tests for the v2 API surface: session-batched mutations (atomicity,
// single-sweep invalidation), streaming retrieval with cursor
// pagination, and the typed error taxonomy.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/value"
)

// defineRainClass registers a cheap, imageless class for stream tests.
func defineRainClass(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.DefineClass(&catalog.Class{
		Name: "rain", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}); err != nil {
		t.Fatal(err)
	}
}

func rainObject(mm float64, x float64) *object.Object {
	return &object.Object{
		Class:  "rain",
		Attrs:  map[string]value.Value{"mm": value.Float(mm)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10)),
	}
}

// TestSessionBatchSingleSweep is the acceptance criterion of the v2
// redesign: a session committing N updates to objects sharing dependents
// performs exactly ONE invalidation sweep under one stale epoch, where
// the per-op path performs N.
func TestSessionBatchSingleSweep(t *testing.T) {
	k := openKernel(t)
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	// One derived landcover depending on all three bands.
	tk, _, err := k.RunProcess(context.Background(), "unsupervised_classification",
		map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	fresh := func(band raster.Band, year int) *raster.Image {
		l := raster.NewLandscape(13)
		spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 10, Cols: 10, DayOfYear: 160, Year: year, Noise: 0.05}
		img, err := l.GenerateBand(spec, band)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	bands := []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR}

	// Batched: all three band updates in one session.
	before := k.Deriv.Counters()
	s := k.Begin(context.Background())
	for i, oid := range scene {
		o, err := k.Objects.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		o.Attrs["data"] = value.Image{Img: fresh(bands[i], 1999)}
		if err := s.Update(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	after := k.Deriv.Counters()
	if got := after.Sweeps - before.Sweeps; got != 1 {
		t.Errorf("batched commit performed %d sweeps, want exactly 1", got)
	}
	// Stale marks are keyed by the batch's ONE commit epoch: the sweep
	// advances the deriv epoch to it, once, however many objects the
	// session staged.
	if after.Epoch <= before.Epoch {
		t.Errorf("sweep did not advance the stale epoch: %d -> %d", before.Epoch, after.Epoch)
	}
	if after.Epoch != k.Objects.CurrentEpoch() {
		t.Errorf("sweep epoch = %d, want the commit epoch %d", after.Epoch, k.Objects.CurrentEpoch())
	}
	if got := after.Invalidations - before.Invalidations; got != 1 {
		t.Errorf("batched commit marked %d objects, want 1 (the shared landcover)", got)
	}
	if got := k.Stale(); len(got) != 1 || got[0] != tk.Output {
		t.Fatalf("stale = %v, want [%d]", got, tk.Output)
	}
	if _, err := k.RefreshStale(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Per-op: the same three updates cost three sweeps.
	before = k.Deriv.Counters()
	for i, oid := range scene {
		o, err := k.Objects.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		o.Attrs["data"] = value.Image{Img: fresh(bands[i], 2003)}
		if err := k.UpdateObject(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	after = k.Deriv.Counters()
	if got := after.Sweeps - before.Sweeps; got != 3 {
		t.Errorf("per-op updates performed %d sweeps, want 3", got)
	}
}

func TestSessionCommitAndPersistence(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir, Options{NoSync: true, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	defineRainClass(t, k)
	seedOID, err := k.CreateObject(context.Background(), rainObject(10, 1000), "seed")
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := k.CreateObject(context.Background(), rainObject(20, 2000), "doomed")
	if err != nil {
		t.Fatal(err)
	}

	s := k.Begin(context.Background())
	var created []object.OID
	for i := 0; i < 4; i++ {
		oid, err := s.Create(rainObject(float64(i), float64(i*100)), "")
		if err != nil {
			t.Fatal(err)
		}
		created = append(created, oid)
	}
	// Stage an update of the seed, a delete of the doomed object, and a
	// create-then-delete (which must net out to nothing).
	seed, err := k.Objects.Get(seedOID)
	if err != nil {
		t.Fatal(err)
	}
	seed.Attrs["mm"] = value.Float(99)
	if err := s.Update(seed); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(doomed); err != nil {
		t.Fatal(err)
	}
	ephemeral, err := s.Create(rainObject(7, 7000), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ephemeral); err != nil {
		t.Fatal(err)
	}

	// Nothing is visible before Commit.
	if got := k.Objects.Count("rain"); got != 2 {
		t.Fatalf("pre-commit count = %d, want 2", got)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); !errors.Is(err, ErrClosed) {
		t.Errorf("double commit err = %v, want ErrClosed", err)
	}
	if got := k.Objects.Count("rain"); got != 5 {
		t.Fatalf("post-commit count = %d, want 5", got)
	}
	// Every created object records a load task, empty note included.
	for _, oid := range created {
		if _, ok := k.Tasks.Producer(oid); !ok {
			t.Errorf("object %d has no load task", oid)
		}
		if !strings.Contains(k.Explain(oid), "data_load") {
			t.Errorf("explain(%d) lacks data_load: %s", oid, k.Explain(oid))
		}
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything survives reopen: the batch was one durable WAL group.
	k2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if got := k2.Objects.Count("rain"); got != 5 {
		t.Fatalf("reopen count = %d, want 5", got)
	}
	if _, err := k2.Objects.Get(doomed); !errors.Is(err, ErrNotFound) && !errors.Is(err, object.ErrNotFound) {
		t.Errorf("doomed object survived: %v", err)
	}
	got, err := k2.Objects.Get(seedOID)
	if err != nil || got.Attrs["mm"].(value.Float) != 99 {
		t.Errorf("seed after reopen = %+v, %v", got, err)
	}
	for _, oid := range created {
		if _, ok := k2.Tasks.Producer(oid); !ok {
			t.Errorf("load task of %d lost on reopen", oid)
		}
	}
}

func TestSessionRollbackDiscardsEverything(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	keep, err := k.CreateObject(context.Background(), rainObject(1, 0), "keep")
	if err != nil {
		t.Fatal(err)
	}
	tasksBefore := len(k.Tasks.All())

	s := k.Begin(context.Background())
	if _, err := s.Create(rainObject(2, 100), "never"); err != nil {
		t.Fatal(err)
	}
	o, _ := k.Objects.Get(keep)
	o.Attrs["mm"] = value.Float(42)
	if err := s.Update(o); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(keep); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); !errors.Is(err, ErrClosed) {
		t.Errorf("commit after rollback = %v, want ErrClosed", err)
	}
	if got := k.Objects.Count("rain"); got != 1 {
		t.Errorf("count after rollback = %d, want 1", got)
	}
	got, err := k.Objects.Get(keep)
	if err != nil || got.Attrs["mm"].(value.Float) != 1 {
		t.Errorf("object mutated by rolled-back session: %+v, %v", got, err)
	}
	if n := len(k.Tasks.All()); n != tasksBefore {
		t.Errorf("rolled-back session leaked %d tasks", n-tasksBefore)
	}
}

// TestSessionStagedCreates: a session finds its own staged creates by
// OID among OIDs another session interleaved: an update replaces a
// staged create's state, and a staged create deleted again is gone for a
// later update or delete.
func TestSessionStagedCreates(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	ctx := context.Background()
	s, other := k.Begin(ctx), k.Begin(ctx)
	var oids []object.OID
	for i := 0; i < 8; i++ {
		oid, err := s.Create(rainObject(float64(i), float64(i*100)), "")
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
		if _, err := other.Create(rainObject(0, float64(i*100+50)), ""); err != nil {
			t.Fatal(err)
		}
	}
	for i, oid := range oids {
		o := rainObject(float64(100+i), float64(i*100))
		o.OID = oid
		if err := s.Update(o); err != nil {
			t.Fatalf("update of staged create %d: %v", oid, err)
		}
	}
	gone := oids[3]
	if err := s.Delete(gone); err != nil {
		t.Fatal(err)
	}
	o := rainObject(1, 300)
	o.OID = gone
	if err := s.Update(o); err == nil {
		t.Errorf("update of create %d deleted in the session succeeded", gone)
	}
	if err := s.Delete(gone); err == nil {
		t.Errorf("second delete of create %d succeeded", gone)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, oid := range oids {
		got, err := k.Objects.Get(oid)
		switch {
		case oid == gone:
			if err == nil {
				t.Errorf("deleted create %d exists", oid)
			}
		case err != nil || got.Attrs["mm"].(value.Float) != value.Float(100+i):
			t.Errorf("create %d = %+v, %v; want its update", oid, got, err)
		}
	}
	if err := other.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionConflictAborted: a commit whose staged update lost to a
// concurrent delete fails atomically — none of its other work applies.
func TestSessionConflictAborted(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	victim, err := k.CreateObject(context.Background(), rainObject(1, 0), "")
	if err != nil {
		t.Fatal(err)
	}

	s := k.Begin(context.Background())
	o, _ := k.Objects.Get(victim)
	o.Attrs["mm"] = value.Float(2)
	if err := s.Update(o); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(rainObject(3, 100), ""); err != nil {
		t.Fatal(err)
	}
	// A concurrent writer deletes the update target before Commit.
	if err := k.DeleteObject(context.Background(), victim); err != nil {
		t.Fatal(err)
	}
	err = s.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}
	if got := k.Objects.Count("rain"); got != 0 {
		t.Errorf("aborted commit leaked objects: count = %d", got)
	}
}

// TestSessionConcurrentCommits exercises session staging and commit from
// many goroutines under -race.
func TestSessionConcurrentCommits(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	const sessions = 8
	const perSession = 5
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for c := 0; c < sessions; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := k.Begin(context.Background())
			for i := 0; i < perSession; i++ {
				if _, err := s.Create(rainObject(float64(i), float64(c*1000+i*20)), ""); err != nil {
					errs[c] = err
					return
				}
			}
			errs[c] = s.Commit()
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", c, err)
		}
	}
	if got := k.Objects.Count("rain"); got != sessions*perSession {
		t.Errorf("count = %d, want %d", got, sessions*perSession)
	}
}

func TestStreamPaginationAndResume(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	s := k.Begin(context.Background())
	var all []object.OID
	for i := 0; i < 7; i++ {
		oid, err := s.Create(rainObject(float64(i), float64(i*100)), "")
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	collect := func(req Request) ([]object.OID, string) {
		t.Helper()
		st, err := k.QueryStream(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var got []object.OID
		for o, err := range st.All() {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, o.OID)
		}
		return got, st.Cursor()
	}
	base := Request{Class: "rain", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}, Limit: 3}

	page1, cur1 := collect(base)
	if len(page1) != 3 || cur1 == "" {
		t.Fatalf("page1 = %v cursor %q", page1, cur1)
	}
	req2 := base
	req2.Cursor = cur1
	page2, cur2 := collect(req2)
	if len(page2) != 3 || cur2 == "" {
		t.Fatalf("page2 = %v cursor %q", page2, cur2)
	}
	req3 := base
	req3.Cursor = cur2
	page3, cur3 := collect(req3)
	if len(page3) != 1 {
		t.Fatalf("page3 = %v", page3)
	}
	if cur3 != "" {
		t.Errorf("exhausted stream cursor = %q, want empty", cur3)
	}
	got := append(append(append([]object.OID{}, page1...), page2...), page3...)
	if len(got) != len(all) {
		t.Fatalf("pages united = %v, want %v", got, all)
	}
	for i, oid := range got {
		if oid != all[i] {
			t.Fatalf("pages united = %v, want %v (ascending, no overlap)", got, all)
		}
	}

	// Abandoning an unlimited stream mid-iteration also yields a resume
	// point: the remaining objects continue exactly after the break.
	st, err := k.QueryStream(context.Background(), Request{Class: "rain", Pred: base.Pred})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	resume := Request{Class: "rain", Pred: base.Pred, Cursor: st.Cursor()}
	rest, _ := collect(resume)
	if len(rest) != 5 || rest[0] != all[2] {
		t.Fatalf("resume after break = %v, want %v", rest, all[2:])
	}

	// A second range over a consumed stream reports an error.
	for _, err := range st.All() {
		if err == nil {
			t.Fatal("re-iterating a consumed stream should error")
		}
		break
	}

	// A malformed cursor is rejected up front.
	if _, err := k.QueryStream(context.Background(), Request{Class: "rain", Pred: base.Pred, Cursor: "bogus"}); err == nil {
		t.Error("bogus cursor accepted")
	}
}

// TestStreamFallbackDerives: an empty retrieval falls through to the
// derivation chain lazily, exactly like Query.
func TestStreamFallbackDerives(t *testing.T) {
	k := openKernel(t)
	loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	st, err := k.QueryStream(context.Background(),
		Request{Class: "landcover", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}})
	if err != nil {
		t.Fatal(err)
	}
	var got []object.OID
	for o, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, o.OID)
	}
	if len(got) != 1 {
		t.Fatalf("derived stream = %v", got)
	}
	if prod, ok := k.Tasks.Producer(got[0]); !ok || prod.Process != "unsupervised_classification" {
		t.Errorf("streamed object not derived: %+v, %v", prod, ok)
	}
}

// TestErrorTaxonomy round-trips every public sentinel through errors.Is.
func TestErrorTaxonomy(t *testing.T) {
	k := openKernel(t)
	ctx := context.Background()
	empty := sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}

	// ErrClassUnknown.
	if _, err := k.Query(ctx, Request{Class: "ghost", Pred: empty}); !errors.Is(err, ErrClassUnknown) {
		t.Errorf("unknown class err = %v, want ErrClassUnknown", err)
	}
	// ErrNotFound.
	if err := k.DeleteObject(ctx, object.OID(99999)); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete missing err = %v, want ErrNotFound", err)
	}
	if err := k.UpdateObject(ctx, &object.Object{OID: 99999, Class: "landsat_tm",
		Attrs:  map[string]value.Value{"band": value.String_("x"), "data": value.Image{Img: raster.MustNew(2, 2, raster.PixFloat4)}},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 1, 1), sptemp.Date(1986, 1, 1))}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing err = %v, want ErrNotFound", err)
	}
	// ErrNoPlan: nothing stored, nothing derivable.
	if _, err := k.Query(ctx, Request{Class: "landcover", Pred: empty}); !errors.Is(err, ErrNoPlan) {
		t.Errorf("underivable query err = %v, want ErrNoPlan", err)
	}

	// ErrStale: reproducing a task whose recorded derived input went stale.
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
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	classify, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	smooth, _, err := k.RunProcess(ctx, "smooth", map[string][]object.OID{"x": {classify.Output}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	replaceBand(t, k, scene[0], raster.BandRed, 1999)
	if _, _, err := k.Reproduce(ctx, smooth.ID); !errors.Is(err, ErrStale) {
		t.Errorf("reproduce over stale input err = %v, want ErrStale", err)
	}

	// ErrConflict: a staged update whose target vanished before commit.
	defineRainClass(t, k)
	victim, err := k.CreateObject(ctx, rainObject(1, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	s := k.Begin(ctx)
	o, _ := k.Objects.Get(victim)
	o.Attrs["mm"] = value.Float(2)
	if err := s.Update(o); err != nil {
		t.Fatal(err)
	}
	if err := k.DeleteObject(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); !errors.Is(err, ErrConflict) {
		t.Errorf("conflicted commit err = %v, want ErrConflict", err)
	}

	// ErrClosed: idempotent Close, then everything refuses politely.
	preClose, err := k.QueryStream(ctx, Request{Class: "rain", Pred: empty})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Errorf("second Close = %v, want nil (idempotent)", err)
	}
	if _, err := k.Query(ctx, Request{Class: "rain", Pred: empty}); !errors.Is(err, ErrClosed) {
		t.Errorf("query after close err = %v, want ErrClosed", err)
	}
	if _, err := k.CreateObject(ctx, rainObject(9, 0), ""); !errors.Is(err, ErrClosed) {
		t.Errorf("create after close err = %v, want ErrClosed", err)
	}
	if _, err := k.QueryStream(ctx, Request{Class: "rain", Pred: empty}); !errors.Is(err, ErrClosed) {
		t.Errorf("stream after close err = %v, want ErrClosed", err)
	}
	s2 := k.Begin(ctx)
	if _, err := s2.Create(rainObject(9, 0), ""); !errors.Is(err, ErrClosed) {
		t.Errorf("session create after close err = %v, want ErrClosed", err)
	}
	// A stream obtained before Close must refuse to drain after it: the
	// retrieval work is lazy and must not touch closed storage.
	for _, err := range preClose.All() {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("draining pre-close stream err = %v, want ErrClosed", err)
		}
		break
	}
	if err := s2.Commit(); !errors.Is(err, ErrClosed) {
		t.Errorf("session commit after close err = %v, want ErrClosed", err)
	}
	if _, _, err := k.RunProcess(ctx, "smooth", nil, RunOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("run after close err = %v, want ErrClosed", err)
	}
}

// TestCreateObjectEmptyNoteRecordsLineage is the satellite fix: objects
// created without a note used to be invisible to Explain/Reproduce.
func TestCreateObjectEmptyNoteRecordsLineage(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	oid, err := k.CreateObject(context.Background(), rainObject(5, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	prod, ok := k.Tasks.Producer(oid)
	if !ok {
		t.Fatal("no load task recorded for empty-note create")
	}
	if prod.Process != "data_load" || prod.Note != "" {
		t.Errorf("load task = %+v", prod)
	}
	if !strings.Contains(k.Explain(oid), "data_load") {
		t.Errorf("explain = %q", k.Explain(oid))
	}
}
