// Benchmark harness: one benchmark per experiment of the reproduction.
// The paper's evaluation is architectural (Figures 1-5, no quantitative
// tables), so each figure is reproduced as an executable scenario and the
// benchmarks measure the costs the design implies: metadata overhead,
// derivation vs retrieval vs memoisation, planner scaling, and the
// storage substrate. EXPERIMENTS.md records the measured numbers.
package gaea

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/concept"
	"gaea/internal/filegis"
	"gaea/internal/imgops"
	"gaea/internal/object"
	"gaea/internal/petri"
	"gaea/internal/process"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

// ---------- shared fixtures ----------

const p20Bench = `
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
)`

const changeMapBench = `
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
)`

const lcdBench = `
DEFINE COMPOUND PROCESS land_change_detection (
  OUTPUT out land_cover_changes
  ARGUMENT ( SETOF tm1 landsat_tm )
  ARGUMENT ( SETOF tm2 landsat_tm )
  STEPS {
    lc1 = unsupervised_classification ( tm1 );
    lc2 = unsupervised_classification ( tm2 );
    out = change_map ( lc1, lc2 );
  }
)`

func benchKernel(b *testing.B) *Kernel {
	b.Helper()
	k, err := Open(b.TempDir(), Options{NoSync: true, User: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { k.Close() })
	for _, c := range []*catalog.Class{
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
		{
			Name: "land_cover_changes", Kind: catalog.KindDerived, DerivedBy: "change_map",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
	} {
		if err := k.DefineClass(c); err != nil {
			b.Fatal(err)
		}
	}
	for _, src := range []string{p20Bench, changeMapBench, lcdBench} {
		if _, err := k.DefineProcess(src); err != nil {
			b.Fatal(err)
		}
	}
	return k
}

// benchScene generates 3 co-registered bands of the given size.
func benchScene(b *testing.B, size, year int) []*raster.Image {
	b.Helper()
	l := raster.NewLandscape(99)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: size, Cols: size, DayOfYear: 170, Year: year, Noise: 0.01}
	imgs, err := l.GenerateScene(spec, []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR})
	if err != nil {
		b.Fatal(err)
	}
	return imgs
}

func loadBenchScene(b *testing.B, k *Kernel, size, year int) []object.OID {
	b.Helper()
	imgs := benchScene(b, size, year)
	day := sptemp.Date(year, 6, 19)
	box := sptemp.NewBox(0, 0, float64(size*30), float64(size*30))
	var oids []object.OID
	for i, img := range imgs {
		oid, err := k.CreateObject(context.Background(), &object.Object{
			Class: "landsat_tm",
			Attrs: map[string]value.Value{
				"band": value.String_(fmt.Sprintf("b%d", i)),
				"data": value.Image{Img: img},
			},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, box, day),
		}, "")
		if err != nil {
			b.Fatal(err)
		}
		oids = append(oids, oid)
	}
	return oids
}

func anyPredBench() sptemp.Extent {
	return sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}
}

// ---------- F1: Figure 1, end-to-end kernel pipeline ----------

// BenchmarkFig1KernelPipeline measures the full kernel path of Figure 1:
// store a scene object (catalog check, blob offload, WAL, index) and
// answer a point query for it.
func BenchmarkFig1KernelPipeline(b *testing.B) {
	k := benchKernel(b)
	imgs := benchScene(b, 32, 1986)
	day := sptemp.Date(1986, 6, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box := sptemp.NewBox(float64(i*1000), 0, float64(i*1000+960), 960)
		oid, err := k.CreateObject(context.Background(), &object.Object{
			Class: "landsat_tm",
			Attrs: map[string]value.Value{
				"band": value.String_("red"),
				"data": value.Image{Img: imgs[0]},
			},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, box, day),
		}, "")
		if err != nil {
			b.Fatal(err)
		}
		hits, err := k.Objects.Query("landsat_tm", sptemp.TimelessExtent(sptemp.DefaultFrame, box))
		if err != nil || len(hits) == 0 || hits[len(hits)-1] != oid {
			b.Fatalf("query lost object: %v, %v", hits, err)
		}
	}
}

// ---------- F2: Figure 2, three-layer concept resolution ----------

// BenchmarkFig2ConceptResolution builds the Figure 2 scenario (concept
// hierarchy over derived classes) and measures resolving a concept query
// through the high-level layer to stored objects.
func BenchmarkFig2ConceptResolution(b *testing.B) {
	k := benchKernel(b)
	// Desert-style hierarchy over the landcover class.
	if err := k.DefineConcept(&concept.Concept{Name: "land cover", Classes: []string{"landcover"}}); err != nil {
		b.Fatal(err)
	}
	if err := k.DefineConcept(&concept.Concept{Name: "specialised cover", Parents: []string{"land cover"}, Classes: []string{"land_cover_changes"}}); err != nil {
		b.Fatal(err)
	}
	scene := loadBenchScene(b, k, 32, 1986)
	if _, _, err := k.RunProcess(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{}); err != nil {
		b.Fatal(err)
	}
	req := Request{Concept: "land cover", Pred: anyPredBench()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := k.Query(context.Background(), req)
		if err != nil || len(res.OIDs) == 0 {
			b.Fatalf("concept query failed: %v", err)
		}
	}
}

// ---------- F3: Figure 3, process P20 ----------

// BenchmarkFig3UnsupervisedClassification measures P20 over scene sizes,
// both as a direct operator call and through the full process template
// (assertion checks + mapping evaluation + object storage), so the
// metadata overhead is visible as the delta.
func BenchmarkFig3UnsupervisedClassification(b *testing.B) {
	for _, size := range []int{32, 64, 128} {
		bands := benchScene(b, size, 1986)
		b.Run(fmt.Sprintf("direct/%dx%d", size, size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := imgops.Unsuperclassify(bands, 12, imgops.ClassifyOptions{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("process/%dx%d", size, size), func(b *testing.B) {
			k := benchKernel(b)
			scene := loadBenchScene(b, k, size, 1986)
			in := map[string][]object.OID{"bands": scene}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := k.RunProcess(context.Background(), "unsupervised_classification", in, RunOptions{NoMemo: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- F4: Figure 4, PCA compound operator network ----------

// BenchmarkFig4PCANetwork compares the explicit Figure 4 dataflow network
// against the fused PCA implementation across band counts.
func BenchmarkFig4PCANetwork(b *testing.B) {
	l := raster.NewLandscape(4)
	for _, nbands := range []int{2, 4, 6} {
		all := []raster.Band{raster.BandBlue, raster.BandGreen, raster.BandRed, raster.BandNIR, raster.BandSWIR, raster.BandThermal}
		spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 64, Cols: 64, DayOfYear: 170, Year: 1986, Noise: 0.01}
		bands, err := l.GenerateScene(spec, all[:nbands])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("network/bands=%d", nbands), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := imgops.PCANetwork(bands, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fused/bands=%d", nbands), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := imgops.PCA(bands, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- F5: Figure 5, compound land-change detection ----------

// BenchmarkFig5LandChange measures the Figure 5 compound: cold derivation,
// memoised re-run (Gaea's task reuse), and the file-based baseline that
// must always recompute.
func BenchmarkFig5LandChange(b *testing.B) {
	const size = 48
	b.Run("gaea/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			k := benchKernel(b)
			tm1 := loadBenchScene(b, k, size, 1986)
			tm2 := loadBenchScene(b, k, size, 1989)
			in := map[string][]object.OID{"tm1": tm1, "tm2": tm2}
			b.StartTimer()
			if _, _, err := k.RunCompound(context.Background(), "land_change_detection", in, RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gaea/memoised", func(b *testing.B) {
		k := benchKernel(b)
		tm1 := loadBenchScene(b, k, size, 1986)
		tm2 := loadBenchScene(b, k, size, 1989)
		in := map[string][]object.OID{"tm1": tm1, "tm2": tm2}
		if _, _, err := k.RunCompound(context.Background(), "land_change_detection", in, RunOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := k.RunCompound(context.Background(), "land_change_detection", in, RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("filegis/recompute", func(b *testing.B) {
		w, err := filegis.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		for i, img := range benchScene(b, size, 1986) {
			w.Import(fmt.Sprintf("tm86_%d", i), img)
		}
		for i, img := range benchScene(b, size, 1989) {
			w.Import(fmt.Sprintf("tm89_%d", i), img)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The baseline has no memo: every request redoes the chain.
			if err := w.Classify("lc86", []string{"tm86_0", "tm86_1", "tm86_2"}, 12); err != nil {
				b.Fatal(err)
			}
			if err := w.Classify("lc89", []string{"tm89_0", "tm89_1", "tm89_2"}, 12); err != nil {
				b.Fatal(err)
			}
			if err := w.Subtract("change", "lc89", "lc86"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- Q1: §2.1.5 query fallback sequence ----------

// BenchmarkQ1QueryFallback measures the three satisfaction paths of the
// query sequence: direct retrieval, temporal interpolation, and full
// derivation.
func BenchmarkQ1QueryFallback(b *testing.B) {
	const size = 32
	b.Run("retrieve", func(b *testing.B) {
		k := benchKernel(b)
		scene := loadBenchScene(b, k, size, 1986)
		if _, _, err := k.RunProcess(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{}); err != nil {
			b.Fatal(err)
		}
		req := Request{Class: "landcover", Pred: anyPredBench()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Query(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interpolate", func(b *testing.B) {
		k := benchKernel(b)
		s1 := loadBenchScene(b, k, size, 1986)
		s2 := loadBenchScene(b, k, size, 1988)
		for _, s := range [][]object.OID{s1, s2} {
			if _, _, err := k.RunProcess(context.Background(), "unsupervised_classification", map[string][]object.OID{"bands": s}, RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each probe at a slightly different instant forces fresh
			// interpolation (stored exact matches would short-circuit).
			at := sptemp.Date(1987, 6, 1).Add(0)
			_ = at
			pred := sptemp.NewExtent(sptemp.DefaultFrame, sptemp.EmptyBox(),
				sptemp.Instant(sptemp.Date(1987, 6, 1)+sptemp.AbsTime(i+1)))
			if _, err := k.Query(context.Background(), Request{Class: "landcover", Pred: pred, Strategies: []Strategy{Interpolate}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("derive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			k := benchKernel(b)
			loadBenchScene(b, k, size, 1986)
			req := Request{Class: "landcover", Pred: anyPredBench()}
			b.StartTimer()
			if _, err := k.Query(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- P1: §2.1.6 Petri-net planner scaling ----------

// BenchmarkP1PetriPlanner measures backward chaining against derivation
// chain depth, and abstract reachability against net width.
func BenchmarkP1PetriPlanner(b *testing.B) {
	for _, depth := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("chain/depth=%d", depth), func(b *testing.B) {
			st, err := storage.Open(b.TempDir(), storage.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			cat, _ := catalog.Open(st)
			// c0 (base, stored) -> c1 -> ... -> cDEPTH via copy processes.
			mk := func(i int) string { return fmt.Sprintf("c%d", i) }
			if err := cat.Define(&catalog.Class{
				Name: mk(0), Kind: catalog.KindBase,
				Attrs: []catalog.Attr{{Name: "v", Type: value.TypeFloat}},
				Frame: sptemp.DefaultFrame, HasSpatial: true,
			}); err != nil {
				b.Fatal(err)
			}
			reg := adt.NewStandardRegistry()
			obj, _ := object.Open(st, cat)
			mgr, err := process.OpenManager(st, cat, reg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i <= depth; i++ {
				if err := cat.Define(&catalog.Class{
					Name: mk(i), Kind: catalog.KindDerived, DerivedBy: fmt.Sprintf("p%d", i),
					Attrs: []catalog.Attr{{Name: "v", Type: value.TypeFloat}},
					Frame: sptemp.DefaultFrame, HasSpatial: true,
				}); err != nil {
					b.Fatal(err)
				}
				src := fmt.Sprintf(`
DEFINE PROCESS p%d (
  OUTPUT o %s
  ARGUMENT ( x %s )
  TEMPLATE {
    MAPPINGS:
      o.v = x.v;
      o.spatialextent = x.spatialextent;
  }
)`, i, mk(i), mk(i-1))
				if _, err := mgr.Define(src); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := obj.Insert(&object.Object{
				Class:  mk(0),
				Attrs:  map[string]value.Value{"v": value.Float(1)},
				Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 1, 1)),
			}); err != nil {
				b.Fatal(err)
			}
			pl := &petri.Planner{Cat: cat, Mgr: mgr, Obj: obj, MaxDepth: depth + 2}
			pred := sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := pl.Plan(context.Background(), mk(depth), pred)
				if err != nil || len(plan.Steps) != depth {
					b.Fatalf("plan: %v (%d steps)", err, len(plan.Steps))
				}
			}
		})
	}
	for _, width := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("reachability/width=%d", width), func(b *testing.B) {
			n := petri.NewNet()
			for i := 0; i < width; i++ {
				err := n.AddTransition(petri.Transition{
					Name: fmt.Sprintf("t%d", i),
					In:   []petri.Arc{{Place: fmt.Sprintf("w%d", i), Weight: 1}},
					Out:  fmt.Sprintf("w%d", i+1),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			m := petri.Marking{"w0": 1}
			target := fmt.Sprintf("w%d", width)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !n.CanDerive(m, target) {
					b.Fatal("should be derivable")
				}
			}
		})
	}
}

// ---------- T1: task memoisation vs recomputation ----------

// BenchmarkT1TaskMemoisation measures answering the same instantiation
// repeatedly: Gaea's memo lookup vs forced recomputation vs the
// file-based baseline.
func BenchmarkT1TaskMemoisation(b *testing.B) {
	const size = 48
	b.Run("gaea/memo", func(b *testing.B) {
		k := benchKernel(b)
		scene := loadBenchScene(b, k, size, 1986)
		in := map[string][]object.OID{"bands": scene}
		if _, _, err := k.RunProcess(context.Background(), "unsupervised_classification", in, RunOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, reused, err := k.RunProcess(context.Background(), "unsupervised_classification", in, RunOptions{})
			if err != nil || !reused {
				b.Fatalf("memo miss: %v", err)
			}
		}
	})
	b.Run("gaea/recompute", func(b *testing.B) {
		k := benchKernel(b)
		scene := loadBenchScene(b, k, size, 1986)
		in := map[string][]object.OID{"bands": scene}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := k.RunProcess(context.Background(), "unsupervised_classification", in, RunOptions{NoMemo: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("filegis/recompute", func(b *testing.B) {
		w, err := filegis.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		for i, img := range benchScene(b, size, 1986) {
			w.Import(fmt.Sprintf("b%d", i), img)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Classify("lc", []string{"b0", "b1", "b2"}, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- S1: storage substrate ----------

// BenchmarkS1Storage measures the embedded store: WAL-logged inserts,
// point reads, and scans.
func BenchmarkS1Storage(b *testing.B) {
	rec := make([]byte, 256)
	b.Run("insert", func(b *testing.B) {
		st, err := storage.Open(b.TempDir(), storage.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Insert("bench", rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		st, err := storage.Open(b.TempDir(), storage.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		rids := make([]storage.RID, 10_000)
		for i := range rids {
			rid, err := st.Insert("bench", rec)
			if err != nil {
				b.Fatal(err)
			}
			rids[i] = rid
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Get("bench", rids[i%len(rids)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan10k", func(b *testing.B) {
		st, err := storage.Open(b.TempDir(), storage.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < 10_000; i++ {
			if _, err := st.Insert("bench", rec); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			st.Scan("bench", func(storage.RID, []byte) bool { n++; return true })
			if n != 10_000 {
				b.Fatalf("scan saw %d", n)
			}
		}
	})
	b.Run("task-memo-lookup", func(b *testing.B) {
		// The metadata operation Gaea adds to every derivation request.
		k := benchKernel(b)
		scene := loadBenchScene(b, k, 16, 1986)
		in := map[string][]object.OID{"bands": scene}
		if _, _, err := k.RunProcess(context.Background(), "unsupervised_classification", in, RunOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, reused, err := k.RunProcess(context.Background(), "unsupervised_classification", in, RunOptions{}); err != nil || !reused {
				b.Fatal("memo miss")
			}
		}
	})
}

// ---------- C1: concurrent derivation engine ----------

// benchKernelAt opens a durable kernel (WAL fsync on, as in production)
// with the Figure 3/5 schema and the given worker-pool size.
func benchKernelAt(b *testing.B, workers int) *Kernel {
	b.Helper()
	k, err := Open(b.TempDir(), Options{User: "bench", Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { k.Close() })
	for _, c := range []*catalog.Class{
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
		{
			Name: "land_cover_changes", Kind: catalog.KindDerived, DerivedBy: "change_map",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
	} {
		if err := k.DefineClass(c); err != nil {
			b.Fatal(err)
		}
	}
	for _, src := range []string{p20Bench, changeMapBench, lcdBench} {
		if _, err := k.DefineProcess(src); err != nil {
			b.Fatal(err)
		}
	}
	return k
}

// BenchmarkConcurrentQueries is the concurrent-query scenario: each
// operation ingests one scene into a fresh spatial tile and answers the
// landcover query for that tile through the full §2.1.5 path (plan +
// derive + record lineage), against a durable kernel. workers=N runs N
// client goroutines on a kernel with an N-sized worker pool; throughput
// scales with workers because independent derivations overlap their
// commit I/O (and, on multi-core hosts, their classification CPU).
func BenchmarkConcurrentQueries(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			k := benchKernelAt(b, workers)
			imgs := benchScene(b, 16, 1986)
			day := sptemp.Date(1986, 6, 19)
			b.ResetTimer()
			// Buffered to b.N so the feeding loop never blocks even if
			// workers bail out early on an error.
			work := make(chan int, b.N)
			for i := 0; i < b.N; i++ {
				work <- i
			}
			close(work)
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for c := 0; c < workers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range work {
						off := float64(i) * 1000
						box := sptemp.NewBox(off, 0, off+480, 480)
						for j, img := range imgs {
							if _, err := k.CreateObject(context.Background(), &object.Object{
								Class: "landsat_tm",
								Attrs: map[string]value.Value{
									"band": value.String_(fmt.Sprintf("b%d", j)),
									"data": value.Image{Img: img},
								},
								Extent: sptemp.AtInstant(sptemp.DefaultFrame, box, day),
							}, ""); err != nil {
								errCh <- err
								return
							}
						}
						res, err := k.Query(context.Background(), Request{
							Class: "landcover",
							Pred:  sptemp.TimelessExtent(sptemp.DefaultFrame, box),
						})
						if err != nil {
							errCh <- err
							return
						}
						if len(res.OIDs) == 0 {
							errCh <- fmt.Errorf("tile %d: empty result", i)
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errCh:
				b.Fatal(err)
			default:
			}
		})
	}
}

// BenchmarkParallelCompound measures one compound derivation at pool
// sizes 1 vs 4: the two unsupervised classifications of Figure 5 are
// independent and run as one parallel stage.
func BenchmarkParallelCompound(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			k := benchKernelAt(b, workers)
			tm1 := loadBenchScene(b, k, 16, 1986)
			tm2 := loadBenchScene(b, k, 16, 1989)
			in := map[string][]object.OID{"tm1": tm1, "tm2": tm2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := k.RunCompound(context.Background(), "land_change_detection", in,
					RunOptions{NoMemo: true, Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleFlightFanIn measures the thundering-herd case of the
// concurrent-query scenario: per round, one fresh execution is in flight
// (the NoMemo run) while N clients request the identical derivation and
// are answered from the flight or the memo. Each round completes N+1
// requests for the price of one derivation, so the reported queries/s
// scale with the client count even on one core — the single-flight
// throughput win.
func BenchmarkSingleFlightFanIn(b *testing.B) {
	for _, clients := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			k := benchKernelAt(b, clients)
			scene := loadBenchScene(b, k, 16, 1986)
			in := map[string][]object.OID{"bands": scene}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, _, err := k.RunProcess(context.Background(), "unsupervised_classification", in,
							RunOptions{}); err != nil {
							b.Error(err)
						}
					}()
				}
				if _, _, err := k.RunProcess(context.Background(), "unsupervised_classification", in,
					RunOptions{NoMemo: true}); err != nil {
					b.Error(err)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.N*(clients+1))/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// ---------- C2: update propagation and invalidation fan-out ----------

// BenchmarkUpdateInvalidate measures the derived-data manager's update
// path: one base scene fans out to fanout change maps (all sharing the
// 1986 landcover), so updating a single band invalidates fanout+1
// derived objects, and RefreshStale recomputes them — the independent
// change maps in parallel on the worker pool. Throughput should scale
// with workers because the fan-out refreshes are independent.
func BenchmarkUpdateInvalidate(b *testing.B) {
	const fanout = 6
	const size = 16
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			k, err := Open(b.TempDir(), Options{
				NoSync: true, User: "bench", Workers: workers,
				RefreshPolicy: ManualRefresh, // refresh timing under the benchmark's control
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { k.Close() })
			for _, c := range []*catalog.Class{
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
				{
					Name: "land_cover_changes", Kind: catalog.KindDerived, DerivedBy: "change_map",
					Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
					Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
				},
			} {
				if err := k.DefineClass(c); err != nil {
					b.Fatal(err)
				}
			}
			for _, src := range []string{p20Bench, changeMapBench} {
				if _, err := k.DefineProcess(src); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			base := loadBenchScene(b, k, size, 1986)
			lc0, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": base}, RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < fanout; i++ {
				scene := loadBenchScene(b, k, size, 1990+i)
				lci, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := k.RunProcess(ctx, "change_map", map[string][]object.OID{
					"a": {lc0.Output}, "b": {lci.Output},
				}, RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			// Two variants of the red band to alternate between.
			variants := [2]*raster.Image{benchScene(b, size, 1986)[0], benchScene(b, size, 1987)[0]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := k.Objects.Get(base[0])
				if err != nil {
					b.Fatal(err)
				}
				o.Attrs["data"] = value.Image{Img: variants[i%2]}
				if err := k.UpdateObject(ctx, o); err != nil {
					b.Fatal(err)
				}
				n, err := k.RefreshStale(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if n != fanout+1 {
					b.Fatalf("refreshed %d, want %d", n, fanout+1)
				}
			}
			b.ReportMetric(float64(b.N*(fanout+1))/b.Elapsed().Seconds(), "refreshes/s")
		})
	}
}

// ---------- V2: session-batched ingest ----------

// BenchmarkSessionBatchIngest compares loading a batch of objects through
// N single-op CreateObject commits (each its own WAL commit, load-task
// record, and invalidation sweep) against ONE session commit (one atomic
// WAL group, one sweep). The session path is the v2 API's batch-ingest
// shape.
// BenchmarkReadersUnderWriters measures MVCC's core promise: snapshot
// readers are not serialized behind a batch writer. "idle" drains
// paginated snapshot streams with no write load; "contended" runs the
// same readers while one writer continuously commits whole-class update
// sessions. With version-chain reads the two should be close — before
// MVCC, every page raced the writer's in-place rewrites.
func BenchmarkReadersUnderWriters(b *testing.B) {
	const nObj = 256
	setup := func(b *testing.B) (*Kernel, []object.OID) {
		b.Helper()
		k, err := Open(b.TempDir(), Options{NoSync: true, User: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { k.Close() })
		if err := k.DefineClass(&catalog.Class{
			Name: "gauge", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
			Frame: sptemp.DefaultFrame, HasSpatial: true,
		}); err != nil {
			b.Fatal(err)
		}
		s := k.Begin(context.Background())
		oids := make([]object.OID, 0, nObj)
		for i := 0; i < nObj; i++ {
			x := float64(i * 20)
			oid, err := s.Create(&object.Object{
				Class:  "gauge",
				Attrs:  map[string]value.Value{"mm": value.Float(0)},
				Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10)),
			}, "")
			if err != nil {
				b.Fatal(err)
			}
			oids = append(oids, oid)
		}
		if err := s.Commit(); err != nil {
			b.Fatal(err)
		}
		return k, oids
	}
	pred := sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}
	drain := func(b *testing.B, k *Kernel) {
		cursor := ""
		seen := 0
		for {
			st, err := k.QueryStream(context.Background(), Request{Class: "gauge", Pred: pred, Limit: 64, Cursor: cursor})
			if err != nil {
				b.Fatal(err)
			}
			for _, err := range st.All() {
				if err != nil {
					b.Fatal(err)
				}
				seen++
			}
			cursor = st.Cursor()
			if cursor == "" {
				break
			}
		}
		if seen != nObj {
			b.Fatalf("drain saw %d objects, want %d", seen, nObj)
		}
	}
	bench := func(withWriter bool) func(b *testing.B) {
		return func(b *testing.B) {
			k, oids := setup(b)
			stop := make(chan struct{})
			var commits atomic.Int64
			var wg sync.WaitGroup
			if withWriter {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Pace the writer at ~100 whole-class commits/s so the
					// run measures lock interference, not raw CPU sharing
					// with an unthrottled write loop.
					tick := time.NewTicker(10 * time.Millisecond)
					defer tick.Stop()
					gen := 0.0
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
						}
						gen++
						s := k.Begin(context.Background())
						for _, oid := range oids {
							o, err := k.Objects.Get(oid)
							if err != nil {
								return
							}
							o.Attrs["mm"] = value.Float(gen)
							if err := s.Update(o); err != nil {
								return
							}
						}
						if s.Commit() == nil {
							commits.Add(1)
						}
					}
				}()
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					drain(b, k)
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "drains/s")
			if withWriter {
				b.ReportMetric(float64(commits.Load())/b.Elapsed().Seconds(), "commits/s")
			}
		}
	}
	b.Run("idle", bench(false))
	b.Run("contended", bench(true))
}

func BenchmarkSessionBatchIngest(b *testing.B) {
	const batch = 64
	openIngest := func(b *testing.B) *Kernel {
		b.Helper()
		k, err := Open(b.TempDir(), Options{NoSync: true, User: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { k.Close() })
		if err := k.DefineClass(&catalog.Class{
			Name: "gauge", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
			Frame: sptemp.DefaultFrame, HasSpatial: true,
		}); err != nil {
			b.Fatal(err)
		}
		return k
	}
	gauge := func(i int) *object.Object {
		x := float64(i * 20)
		return &object.Object{
			Class:  "gauge",
			Attrs:  map[string]value.Value{"mm": value.Float(float64(i))},
			Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10)),
		}
	}

	b.Run("per-op", func(b *testing.B) {
		k := openIngest(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if _, err := k.CreateObject(context.Background(), gauge(i*batch+j), "tape"); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "objects/s")
	})
	b.Run("session", func(b *testing.B) {
		k := openIngest(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := k.Begin(context.Background())
			for j := 0; j < batch; j++ {
				if _, err := s.Create(gauge(i*batch+j), "tape"); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "objects/s")
	})
}
