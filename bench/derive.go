package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"

	"gaea"
	"gaea/client"
	"gaea/internal/catalog"
	"gaea/internal/imgops"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/task"
	"gaea/internal/value"
)

// derive-refresh: the paper's loop. Each tile holds two Landsat scenes of
// three bands; set-up derives every tile's land-cover change map cold
// through a Derive query. Every op then corrects one band of a tile's
// first scene (a remote session Update + Commit, which marks the scene's
// land cover and the change map stale), has that tile's change map
// re-derived in place, stale ancestor first (Deriv.RefreshObject), and
// asks for the change map again.
//
// The refresh is RefreshObject and not the Derive query ISSUE 15 names
// because at this commit the planner, finding one of a tile's two land
// covers stale, binds the other one to both arguments of change_map and
// answers with a new all-zero change map, leaving the stale pair stale
// (TestDeriveQueryOverStaleTile pins this). A workload may not contain
// failing ops, so the op takes the path that is right today. It is the
// per-object refresh, which only the embedded kernel offers, and not
// Conn.RefreshStale, because that one refreshes every client's stale
// tiles: an op would then cost zero, one or two refreshes by the luck of
// its neighbour's timing.

const (
	deriveTiles  = 96
	derivePixels = 32 // scene side
	changesClass = "land_cover_changes"
)

// deriveClasses and deriveProcesses are cmd/gaea-bench's seedBenchSchema:
// the Figure 3/5 classes and processes.
var deriveClasses = []*catalog.Class{
	{Name: "landsat_tm", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "band", Type: value.TypeString}, {Name: "data", Type: value.TypeImage}},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true},
	{Name: "landcover", Kind: catalog.KindDerived, DerivedBy: "unsupervised_classification",
		Attrs: []catalog.Attr{{Name: "numclass", Type: value.TypeInt}, {Name: "data", Type: value.TypeImage}},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true},
	{Name: changesClass, Kind: catalog.KindDerived, DerivedBy: "change_map",
		Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true},
}

var deriveProcesses = []string{`
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
)`, `
DEFINE PROCESS change_map (
  OUTPUT out land_cover_changes
  ARGUMENT ( a landcover )
  ARGUMENT ( b landcover )
  TEMPLATE {
    ASSERTIONS:
      common ( a.spatialextent );
    MAPPINGS:
      out.data = img_subtract ( b.data, a.data );
      out.spatialextent = a.spatialextent;
      out.timestamp = b.timestamp;
  }
)`, `
DEFINE COMPOUND PROCESS land_change_detection (
  OUTPUT out land_cover_changes
  ARGUMENT ( SETOF tm1 landsat_tm )
  ARGUMENT ( SETOF tm2 landsat_tm )
  STEPS {
    lc1 = unsupervised_classification ( tm1 );
    lc2 = unsupervised_classification ( tm2 );
    out = change_map ( lc1, lc2 );
  }
)`}

func defineDeriveSchema(k *gaea.Kernel) error {
	for _, c := range deriveClasses {
		if err := k.DefineClass(c); err != nil {
			return err
		}
	}
	for _, src := range deriveProcesses {
		if _, err := k.DefineProcess(src); err != nil {
			return err
		}
	}
	return nil
}

// deriveTile is one tile's objects.
type deriveTile struct {
	pred     sptemp.Extent
	band0    *object.Object   // the first scene's red band as loaded
	variants [2]*raster.Image // band0's image as loaded, and its correction
	flip     int              // which variant band0 holds now
	bands    []object.OID     // the first scene's three bands
	lc1      object.OID       // land cover of the first scene
	changes  object.OID       // the tile's change map
}

type deriveWorkload struct {
	seed  uint64
	k     *gaea.Kernel
	tiles []deriveTile
	user  atomic.Int64

	// scratch takes the replays' writes (traced run only): one band
	// object to update in place, and blob puts under IDs of their own.
	scratch     *gaea.Kernel
	scratchBand *object.Object
	scratchBlob atomic.Uint64
}

func newDerive(scale float64, seed uint64) workload {
	// Every connection owns at least one tile.
	return &deriveWorkload{seed: seed, tiles: make([]deriveTile, max(int(deriveTiles*scale), runtime.NumCPU()))}
}

func (w *deriveWorkload) options() gaea.Options {
	return gaea.Options{NoSync: true, User: "bench", RefreshPolicy: gaea.LazyRefresh}
}

// scene generates one acquisition of a tile: red, near- and short-wave
// infrared.
func (w *deriveWorkload) scene(tile, year int) ([]*raster.Image, sptemp.Extent, error) {
	const side = derivePixels * 30
	off := float64(tile) * (side + 300)
	spec := raster.SceneSpec{OriginX: off, CellSize: 30, Rows: derivePixels, Cols: derivePixels,
		DayOfYear: 170, Year: year, Noise: 0.01}
	imgs, err := raster.NewLandscape(w.seed+uint64(tile)).GenerateScene(spec,
		[]raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR})
	ext := sptemp.AtInstant(sptemp.DefaultFrame, sptemp.NewBox(off, 0, off+side, side), sptemp.Date(year, 6, 19))
	return imgs, ext, err
}

func bandObject(i int, img *raster.Image, ext sptemp.Extent) *object.Object {
	return &object.Object{Class: "landsat_tm", Extent: ext, Attrs: map[string]value.Value{
		"band": value.String_(fmt.Sprintf("b%d", i)), "data": value.Image{Img: img}}}
}

func (w *deriveWorkload) load(ctx context.Context, k *gaea.Kernel) error {
	w.k = k
	if err := defineDeriveSchema(k); err != nil {
		return err
	}
	for i := range w.tiles {
		t := &w.tiles[i]
		for _, year := range []int{1986, 1990} {
			imgs, ext, err := w.scene(i, year)
			if err != nil {
				return err
			}
			s := k.Begin(ctx)
			for b, img := range imgs {
				o := bandObject(b, img, ext)
				oid, err := s.Create(o, "")
				if err != nil {
					_ = s.Rollback() // cannot fail: nothing was prepared
					return err
				}
				n, err := userBytes(o)
				if err != nil {
					_ = s.Rollback()
					return err
				}
				w.user.Add(n)
				if year == 1986 {
					t.bands = append(t.bands, oid)
					if b == 0 {
						t.band0, t.variants[0] = o, img
					}
				}
			}
			if err := s.Commit(); err != nil {
				return err
			}
			t.pred = sptemp.TimelessExtent(sptemp.DefaultFrame, ext.Space)
		}
		alt, _, err := w.scene(i, 1987)
		if err != nil {
			return err
		}
		t.variants[1] = alt[0]

		// Cold derivation: two classifications and their difference.
		res, err := k.Query(ctx, gaea.Request{Class: changesClass, Pred: t.pred, Strategies: []gaea.Strategy{gaea.Derive}})
		if err != nil {
			return fmt.Errorf("tile %d: cold derivation: %w", i, err)
		}
		if len(res.OIDs) != 1 || res.How[0] != gaea.Derive {
			return fmt.Errorf("tile %d: cold derivation answered %v via %v", i, res.OIDs, res.How)
		}
		t.changes = res.OIDs[0]
		for _, c := range k.Tasks.Consumers(t.band0.OID) {
			t.lc1 = c.Output
		}
		if t.lc1 == 0 {
			return fmt.Errorf("tile %d: no land cover derived from band %d", i, t.band0.OID)
		}
	}
	return nil
}

// verify checks the paper's invariant on every tile once the ops are
// done: the change map served as fresh equals re-running its recorded
// task. It runs here, not among the ops, because Reproduce records a new
// task and output under the same memo key and would grow the derivation
// graph while it is being measured.
func (w *deriveWorkload) verify(ctx context.Context) (int, error) {
	failed := len(w.k.Stale())
	for i := range w.tiles {
		t, ok := w.k.Tasks.Producer(w.tiles[i].changes)
		if !ok {
			failed++
			continue
		}
		_, same, err := w.k.Reproduce(ctx, t.ID)
		if err != nil {
			return failed, fmt.Errorf("tile %d: reproduce task %d: %w", i, t.ID, err)
		}
		if !same {
			failed++
		}
	}
	return failed, nil
}

func (w *deriveWorkload) userBytes() int64 { return w.user.Load() }

func (w *deriveWorkload) openProbes(dir string) (err error) {
	if w.scratch, err = gaea.Open(filepath.Join(dir, "kernel"), w.options()); err != nil {
		return err
	}
	if err = w.scratch.DefineClass(deriveClasses[0]); err != nil {
		return err
	}
	t := &w.tiles[0]
	w.scratchBand = bandObject(0, t.variants[0], t.band0.Extent)
	_, err = w.scratch.Objects.Insert(w.scratchBand)
	return err
}

func (w *deriveWorkload) closeProbes() error {
	if w.scratch == nil {
		return nil
	}
	return w.scratch.Close()
}

func (w *deriveWorkload) client(id int, conn *client.Conn, rng *rand.Rand) opClient {
	c := &deriveClient{w: w, conn: conn, rng: rng}
	// Each client owns the tiles congruent to its ID: no two clients ever
	// update the same band.
	for i := id; i < len(w.tiles); i += runtime.NumCPU() {
		c.owned = append(c.owned, &w.tiles[i])
	}
	return c
}

type deriveClient struct {
	w     *deriveWorkload
	conn  *client.Conn
	rng   *rand.Rand
	owned []*deriveTile
	tile  *deriveTile // of the op last run
	sum   uint64
}

func (c *deriveClient) digest() uint64 { return c.sum }

func (c *deriveClient) op(ctx context.Context, _ int, at opSpan) bool {
	w := c.w
	t := c.owned[c.rng.IntN(len(c.owned))]
	c.tile = t
	t.flip ^= 1
	c.sum = mix(mix(c.sum, uint64(t.band0.OID)), uint64(crc32.ChecksumIEEE(t.variants[t.flip].Data())))
	o := &object.Object{OID: t.band0.OID, Class: t.band0.Class, Extent: t.band0.Extent, Attrs: map[string]value.Value{
		"band": t.band0.Attrs["band"], "data": value.Image{Img: t.variants[t.flip]}}}
	n, err := userBytes(o)
	if err != nil {
		return false
	}
	var s client.Session
	at.timed(at.root, "client.begin", 1, func() { s = c.conn.Begin(ctx) })
	if err := s.Update(o); err != nil {
		return false
	}
	at.timed(at.root, "client.commit", 1, func() { err = s.Commit() })
	if err != nil {
		return false
	}
	w.user.Add(n)
	at.timed(at.root, "deriv.refresh_object", 1, func() { err = w.k.Deriv.RefreshObject(ctx, t.changes) })
	if err != nil {
		return false
	}
	var res *gaea.Result
	at.timed(at.root, "client.query", 1, func() {
		res, err = c.conn.Query(ctx, gaea.Request{Class: changesClass, Pred: t.pred})
	})
	// Right iff the tile's one change map came back, stored and fresh.
	return err == nil && slices.Equal(res.OIDs, []object.OID{t.changes}) && res.How[0] == gaea.Retrieve && !w.k.Deriv.IsStale(t.changes)
}

// probe replays the op's derivation work on its tile: the invalidation
// sweep, the plan a Derive query would ask for in the stale state, and
// the recomputation of the scene's land cover; beneath that the template evaluation and its
// classification operator, and on the scratch store the object update
// and blob write a recomputation ends with; last the change map's
// subtraction. The tile is refreshed again before the client moves on.
func (c *deriveClient) probe(ctx context.Context, at opSpan) {
	w, k, t := c.w, c.w.k, c.tile
	at.timed(at.root, "deriv.sweep", 1, func() {
		_ = k.Deriv.ObjectsChanged([]object.OID{t.band0.OID}, nil, k.Objects.CurrentEpoch())
	})
	defer func() { _ = k.Deriv.RefreshObject(ctx, t.changes) }()
	at.timed(at.root, "petri.plan", 1, func() {
		_, _ = k.Planner.Plan(ctx, changesClass, sptemp.Extent{Frame: t.pred.Frame, Space: t.pred.Space})
	})
	producer, ok := k.Tasks.Producer(t.lc1)
	if !ok {
		return
	}
	rc := at.timed(at.root, "task.recompute", 1, func() {
		_, _ = k.Tasks.RecomputeTask(ctx, producer.ID, task.RunOptions{User: "bench"})
	})

	pr, err := k.Processes.Lookup("unsupervised_classification")
	if err != nil {
		return
	}
	outClass, err := k.Catalog.Class("landcover")
	if err != nil {
		return
	}
	var bands []*object.Object
	var imgs []*raster.Image
	for _, oid := range t.bands {
		o, err := k.Objects.Get(oid)
		if err != nil {
			return
		}
		bands = append(bands, o)
		imgs = append(imgs, o.Attrs["data"].(value.Image).Img)
	}
	ev := at.timed(rc, "process.eval", 1, func() {
		b, err := pr.Bind(map[string][]*object.Object{"bands": bands})
		if err != nil {
			return
		}
		if b.CheckAssertions(k.Registry) == nil {
			_, _, _ = b.EvalMappings(k.Registry, outClass)
		}
	})
	var lc *raster.Image
	at.timed(ev, "imgops.unsuperclassify", 1, func() {
		lc, _ = imgops.Unsuperclassify(imgs, 12, imgops.ClassifyOptions{Seed: 1})
	})
	if lc == nil {
		return
	}
	upd := &object.Object{OID: w.scratchBand.OID, Class: w.scratchBand.Class, Extent: w.scratchBand.Extent,
		Attrs: map[string]value.Value{"band": w.scratchBand.Attrs["band"], "data": value.Image{Img: lc}}}
	ou := at.timed(rc, "object.update", 1, func() { _ = w.scratch.Objects.Update(upd) })
	blob := storage.BlobID(1<<40 + w.scratchBlob.Add(1))
	data := raster.Marshal(lc)
	at.timed(ou, "storage.blob_put", 1, func() { _ = w.scratch.Store.Blobs().Put(blob, data) })

	at.timed(at.root, "imgops.img_subtract", 1, func() { _, _ = imgops.Subtract(lc, lc) })
}
