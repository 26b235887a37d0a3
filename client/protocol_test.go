package client

// Wire-level contracts of the stream path: the fallback chain behind a
// remote QueryStream (derivation, its snapshot refusal and its byte
// budget) and the refusal of op numbers no request may use.

import (
	"errors"
	"strings"
	"testing"

	"gaea"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/value"
	"gaea/internal/wire"
)

// openLandKernel opens a kernel with the landsat_tm → landcover
// derivation and one three-band scene to derive from.
func openLandKernel(t *testing.T) *gaea.Kernel {
	t.Helper()
	k, err := gaea.Open(t.TempDir(), gaea.Options{NoSync: true, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { k.Close() })
	for _, c := range []*catalog.Class{{
		Name: "landsat_tm", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "band", Type: value.TypeString}, {Name: "data", Type: value.TypeImage}},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
	}, {
		Name: "landcover", Kind: catalog.KindDerived, DerivedBy: "unsupervised_classification",
		Attrs: []catalog.Attr{{Name: "numclass", Type: value.TypeInt}, {Name: "data", Type: value.TypeImage}},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
	}} {
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
	land := raster.NewLandscape(13)
	spec := raster.SceneSpec{CellSize: 30, Rows: 10, Cols: 10, DayOfYear: 160, Year: 1986, Noise: 0.01}
	for _, b := range []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR} {
		img, err := land.GenerateBand(spec, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.CreateObject(ctx, &object.Object{
			Class:  "landsat_tm",
			Attrs:  map[string]value.Value{"band": value.String_(b.String()), "data": value.Image{Img: img}},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 300, 300), sptemp.Date(1986, 6, 9)),
		}, "tape"); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

func landcoverReq() gaea.Request {
	req := rainPred()
	req.Class = "landcover"
	return req
}

// TestRemoteStreamFallback drives the fallback chain over the wire: a
// fresh remote stream whose retrieval is empty derives, is not
// resumable, and ends with an empty cursor; a snapshot stream never
// derives (its empty retrieval is unsatisfied, as embedded); and a
// derived result over the page byte budget fails with the bad-request
// error instead of being truncated without a cursor.
func TestRemoteStreamFallback(t *testing.T) {
	k := openLandKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := snap.QueryStream(ctx, landcoverReq())
	if err != nil {
		t.Fatal(err)
	}
	for o, err := range sst.All() {
		if o != nil || !errors.Is(err, gaea.ErrNoPlan) {
			t.Fatalf("snapshot stream over an empty class yielded %v, %v; want nothing and ErrNoPlan", o, err)
		}
	}
	snap.Release()
	stored := landcoverReq()
	stored.Strategies = []gaea.Strategy{gaea.Retrieve}
	if _, err := k.Query(ctx, stored); !errors.Is(err, gaea.ErrNoPlan) {
		t.Fatalf("after the snapshot stream, stored landcover: %v; want none (ErrNoPlan)", err)
	}

	st, err := c.QueryStream(ctx, landcoverReq())
	if err != nil {
		t.Fatal(err)
	}
	objs := drainAll(t, st)
	if len(objs) != 1 {
		t.Fatalf("derived stream yielded %d objects, want 1", len(objs))
	}
	if prod, ok := k.Tasks.Producer(objs[0].OID); !ok || prod.Process != "unsupervised_classification" {
		t.Fatalf("streamed object %d not derived: %+v, %v", objs[0].OID, prod, ok)
	}
	if _, ok := objs[0].Attrs["data"].(value.Image); !ok {
		t.Fatalf("derived object arrived without its image: %+v", objs[0].Attrs)
	}
	if cur := st.Cursor(); cur != "" {
		t.Fatalf("derived stream left cursor %q; fallback results are not resumable", cur)
	}

	// A derived land cover (a 10x10 image) cannot fit a 128-byte frame:
	// the page is refused with the bad-request error, not shipped short.
	k2 := openLandKernel(t)
	_, addr2 := startServer(t, k2, gaea.ServeOptions{MaxFrame: 128})
	c2 := dial(t, addr2)
	st2, err := c2.QueryStream(ctx, landcoverReq())
	if err != nil {
		t.Fatal(err)
	}
	for o, err := range st2.All() {
		if o != nil || err == nil || !strings.Contains(err.Error(), wire.CodeBadRequest.String()) {
			t.Fatalf("over-budget derived page yielded %v, %v; want the bad-request error", o, err)
		}
	}
}

// TestRetiredOpsRefused: the op numbers of the retired paged protocol —
// hello (1), stream (5) and snapshot stream (10) — answer bad-request
// and lease nothing. A stream request there once answered OK with no
// objects (a response frame has no object slot) and a cursor past the
// page: objects silently skipped, and an epoch pinned until its lease
// expired.
func TestRetiredOpsRefused(t *testing.T) {
	k := openKernel(t)
	srv, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)
	seedRain(t, c, 20, 1)
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	leases := srv.Stats().ActiveLeases
	req := rainPred()
	req.Limit = 4
	q := wire.FromQuery(req)
	for _, op := range []wire.Op{1, 5, 10} {
		_, err := c.RoundTrip(ctx, &wire.Request{Op: op, Query: &q, Lease: snap.(*remoteSnapshot).lease})
		if err == nil || !strings.Contains(err.Error(), wire.CodeBadRequest.String()) {
			t.Errorf("op %d: %v, want a bad-request refusal", op, err)
		}
	}
	if got := srv.Stats().ActiveLeases; got != leases {
		t.Fatalf("active leases %d after the refused ops, want %d", got, leases)
	}
}
