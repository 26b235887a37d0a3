package gaea

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/task"
	"gaea/internal/value"
)

// newBand returns a band object's next state: a scene of another year.
func newBand(k *Kernel, oid object.OID, b raster.Band, year int) (*object.Object, error) {
	l := raster.NewLandscape(13)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 10, Cols: 10, DayOfYear: 160, Year: year, Noise: 0.05}
	img, err := l.GenerateBand(spec, b)
	if err != nil {
		return nil, err
	}
	o, err := k.Objects.Get(oid)
	if err != nil {
		return nil, err
	}
	o.Attrs["data"] = value.Image{Img: img}
	return o, nil
}

// servedFresh checks that an object the kernel treats as fresh equals
// Reproduce of its producer task over the current inputs.
func servedFresh(t *testing.T, k *Kernel, what string, oid object.OID) {
	t.Helper()
	if k.Deriv.IsStale(oid) {
		return
	}
	p, ok := k.Tasks.Producer(oid)
	if !ok {
		t.Fatalf("%s: object %d has no producer", what, oid)
	}
	if _, same, err := k.Reproduce(context.Background(), p.ID); err != nil || !same {
		t.Errorf("%s: object %d is served as fresh, but Reproduce over the current inputs gives same=%v, %v", what, oid, same, err)
	}
}

// TestDerivationRacingInputUpdate: a band update commits between a
// classification's reads and its commit (task.Clock runs there). The
// commit must not record a land cover computed from the old band as
// fresh: afterwards no memo hit, query or object left out of Stale()
// differs from Reproduce over the current inputs.
func TestDerivationRacingInputUpdate(t *testing.T) {
	ctx := context.Background()
	k := openKernel(t)
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	defer func(c func() time.Time) { task.Clock = c }(task.Clock)
	var once sync.Once
	var hookErr error
	task.Clock = func() time.Time {
		once.Do(func() {
			o, err := newBand(k, scene[0], raster.BandRed, 1999)
			if err == nil {
				err = k.UpdateObject(ctx, o)
			}
			hookErr = err
		})
		return time.Now()
	}
	tk, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil || hookErr != nil {
		t.Fatalf("classification: %v; band update: %v", err, hookErr)
	}
	servedFresh(t, k, "the classification", tk.Output)

	again, reused, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		servedFresh(t, k, "the memo hit", again.Output)
	}
	res, err := k.Query(ctx, Request{Class: "landcover", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range res.OIDs {
		servedFresh(t, k, "the query's answer", oid)
	}
	all, err := k.Objects.Query("landcover", sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()})
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range all {
		if !slices.Contains(k.Stale(), oid) {
			servedFresh(t, k, "a land cover left out of Stale()", oid)
		}
	}
}

// TestUnsweptUpdateReadsStaleAfterReopen: a crash between a session's
// group and its invalidation sweep leaves a durable band update and no
// sweep. A reopen judges staleness from lineage, so every dependent of
// the band — the land cover and its smoothing — reads stale.
func TestUnsweptUpdateReadsStaleAfterReopen(t *testing.T) {
	ctx := context.Background()
	k := openKernelOpts(t, Options{NoSync: true, User: "tester", RefreshPolicy: ManualRefresh})
	defineSmooth(t, k)
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	classify, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	smooth, _, err := k.RunProcess(ctx, "smooth", map[string][]object.OID{"x": {classify.Output}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := newBand(k, scene[0], raster.BandRed, 1999)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Objects.CheckUpdate(o); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Objects.ApplyBatch(object.BatchOps{Updates: []*object.Object{o}}); err != nil {
		t.Fatal(err)
	}
	dir := k.Dir()
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	k2, err := Open(dir, Options{NoSync: true, User: "tester", RefreshPolicy: ManualRefresh})
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	want := []object.OID{classify.Output, smooth.Output}
	if got := k2.Stale(); !slices.Equal(got, want) {
		t.Fatalf("stale after reopen = %v, want %v", got, want)
	}
	epoch := k2.Objects.CurrentEpoch()
	for _, oid := range want {
		if !k2.Deriv.IsStaleAt(oid, epoch) {
			t.Errorf("object %d is fresh at the current epoch %d", oid, epoch)
		}
	}
	if n, err := k2.RefreshStale(ctx); err != nil || n != 2 {
		t.Fatalf("RefreshStale = %d, %v", n, err)
	}
	servedFresh(t, k2, "the refreshed land cover", classify.Output)
	servedFresh(t, k2, "the refreshed smoothing", smooth.Output)
}

// defineScalarChain defines base class c0 and derived classes c1 = p1(c0),
// c2 = p2(c1) and c3 = p3(c2, c0), each carrying one float v.
func defineScalarChain(t *testing.T, k *Kernel) {
	t.Helper()
	for i, by := range []string{"", "p1", "p2", "p3"} {
		c := &catalog.Class{Name: fmt.Sprintf("c%d", i), Kind: catalog.KindDerived, DerivedBy: by,
			Attrs: []catalog.Attr{{Name: "v", Type: value.TypeFloat}}, Frame: sptemp.DefaultFrame, HasSpatial: true}
		if by == "" {
			c.Kind = catalog.KindBase
		}
		if err := k.DefineClass(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{
		"DEFINE PROCESS p1 ( OUTPUT o c1 ARGUMENT ( x c0 ) TEMPLATE { MAPPINGS: o.v = x.v; o.spatialextent = x.spatialextent; } )",
		"DEFINE PROCESS p2 ( OUTPUT o c2 ARGUMENT ( x c1 ) TEMPLATE { MAPPINGS: o.v = x.v; o.spatialextent = x.spatialextent; } )",
		"DEFINE PROCESS p3 ( OUTPUT o c3 ARGUMENT ( a c2 ) ARGUMENT ( b c0 ) TEMPLATE { MAPPINGS: o.v = a.v; o.spatialextent = b.spatialextent; } )",
	} {
		if _, err := k.DefineProcess(src); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepJudgesInputsFirst: a derivation commits between a session's
// group and its sweep (sweepHook), reading an input that sweep is about
// to find stale: d = p3(i, g), where i = p2(j) and j = p1(g), and the
// session updated g. The sweep reaches j and d first (both read g), then
// i. It must judge i before d: d is newer than the update and than each
// of its inputs, and is stale only through i. The stale set is j, i and
// d, and a reopen, which judges every derived object afresh, agrees.
func TestSweepJudgesInputsFirst(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := Options{NoSync: true, RefreshPolicy: ManualRefresh}
	k, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { k.Close() }()
	defineScalarChain(t, k)
	g, err := k.CreateObject(ctx, &object.Object{Class: "c0", Attrs: map[string]value.Value{"v": value.Float(1)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 10, 10))}, "")
	if err != nil {
		t.Fatal(err)
	}
	run := func(proc string, in map[string][]object.OID) object.OID {
		tk, _, err := k.RunProcess(ctx, proc, in, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", proc, err)
		}
		return tk.Output
	}
	j := run("p1", map[string][]object.OID{"x": {g}})
	i := run("p2", map[string][]object.OID{"x": {j}})

	var d object.OID
	defer func() { sweepHook = nil }()
	sweepHook = func() {
		sweepHook = nil
		d = run("p3", map[string][]object.OID{"a": {i}, "b": {g}})
	}
	o, err := k.Objects.Get(g)
	if err != nil {
		t.Fatal(err)
	}
	o.Attrs["v"] = value.Float(2)
	s := k.Begin(ctx)
	if err := s.Update(o); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Fatal("the hook did not run")
	}
	want := []object.OID{j, i, d}
	if got := k.Deriv.Stale(); !slices.Equal(got, want) {
		t.Errorf("stale after the sweep: %v, want %v (j, i, d)", got, want)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if k, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if got := k.Deriv.Stale(); !slices.Equal(got, want) {
		t.Errorf("stale after a reopen: %v, want %v (j, i, d)", got, want)
	}
}
