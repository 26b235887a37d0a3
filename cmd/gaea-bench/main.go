// Command gaea-bench regenerates the experiment rows recorded in
// EXPERIMENTS.md: for every figure of the paper (and the derived
// experiments C1–C8) it runs the scenario, measures it with wall-clock
// timing, and prints one table per experiment. Absolute numbers
// depend on the host; the shapes (who wins, by what factor) are the
// reproduction targets.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gaea"
	"gaea/client"
	"gaea/internal/catalog"
	"gaea/internal/fed"
	"gaea/internal/filegis"
	"gaea/internal/imgops"
	"gaea/internal/object"
	"gaea/internal/petri"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/value"
)

// workers sizes the kernel's derivation worker pool and the client
// goroutines of the concurrent-query scenario.
var workers = flag.Int("workers", runtime.GOMAXPROCS(0), "derivation worker-pool size (and C1 client count)")

// refresh picks the C2 scenario's refresh policy: how invalidated derived
// objects are brought up to date (lazy, eager, or manual).
var refresh = flag.String("refresh", "lazy", "C2 refresh policy: lazy|eager|manual")

// batch sizes the C3 batched-ingest scenario: how many objects one
// session commit carries vs the same count of single-op commits.
var batch = flag.Int("batch", 256, "C3 batched-ingest batch size")

// mvcc tunes the C4 snapshot-readers-under-writer scenario: reader
// goroutine count (writer pacing is fixed at ~100 commits/s).
var mvcc = flag.Int("mvcc", runtime.GOMAXPROCS(0), "C4 snapshot reader goroutine count")

// serveClients sizes the C5 service-layer scenario: how many remote
// connections hammer a `gaea serve` unix-socket endpoint, compared with
// the same client count sharing the embedded kernel.
var serveClients = flag.Int("serve", 4, "C5 remote client connection count")

// The reproducibility harness: -repeats re-runs each measured grid row
// and records every sample; -json writes machine-readable BENCH_<exp>.json
// files next to the markdown tables; -only selects an experiment subset
// (CI smoke runs `-only C5 -repeats 1`); -check validates that a
// previously written BENCH file still parses against the schema.
var repeats = flag.Int("repeats", 1, "samples per measured grid row (C5/C7)")
var inflight = flag.String("inflight", "8,32", "C5 pipelining depths (comma-separated requests in flight per connection)")
var jsonDir = flag.String("json", "", "directory to write BENCH_<exp>.json result files (empty = skip)")
var only = flag.String("only", "", "comma-separated experiment subset, e.g. C5,C7 (empty = all)")
var check = flag.String("check", "", "validate a BENCH_*.json file against the result schema and exit")
var fedGrid = flag.String("fed-shards", "1,2,4", "C6 federation shard-count grid (comma-separated)")
var slowOps = flag.Bool("slow", false, "run the slow-op-log scenario (a throttled derivation must land in the kernel's slow-op log) and exit")

var ctx = context.Background()

func main() {
	flag.Parse()
	if *check != "" {
		checkBenchFile(*check)
		return
	}
	if *slowOps {
		expSlow()
		return
	}
	exps := []struct {
		name string
		fn   func()
	}{
		{"F3", expF3}, {"F4", expF4}, {"F5T1", expF5T1}, {"Q1", expQ1},
		{"C1", expC1}, {"C2", expC2}, {"C3", expC3}, {"C4", expC4},
		{"C5", expC5}, {"C6", expC6}, {"C7", expC7}, {"C8", expC8}, {"P1", expP1},
	}
	sel := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			sel[strings.ToUpper(strings.TrimSpace(n))] = true
		}
	}
	fmt.Printf("gaea-bench: regenerating the EXPERIMENTS.md tables (workers=%d refresh=%s batch=%d repeats=%d)\n",
		*workers, *refresh, *batch, *repeats)
	fmt.Println()
	for _, e := range exps {
		if len(sel) == 0 || sel[e.name] {
			e.fn()
		}
	}
	fmt.Println("done")
}

// ---------------------------------------------------------------------
// Machine-readable results (BENCH_<exp>.json).

// benchRow is one measured grid row: every repeat's sample plus the
// median the tables print.
type benchRow struct {
	Name    string         `json:"name"`
	Metric  string         `json:"metric"`
	Samples []float64      `json:"samples"`
	Median  float64        `json:"median"`
	P99us   float64        `json:"p99_us,omitempty"`
	Config  map[string]any `json:"config,omitempty"`
}

// benchFile is the whole experiment record. Histograms carries the
// kernel's latency distributions (query_ns, session_commit_ns, ...) as
// observed over the whole experiment — the registry's view of the run,
// complementing the client-side medians in Rows.
type benchFile struct {
	Experiment  string                            `json:"experiment"`
	GeneratedAt string                            `json:"generated_at"`
	GOOS        string                            `json:"goos"`
	GOARCH      string                            `json:"goarch"`
	CPUs        int                               `json:"cpus"`
	Config      map[string]any                    `json:"config"`
	Rows        []benchRow                        `json:"rows"`
	Histograms  map[string]gaea.HistogramSnapshot `json:"histograms,omitempty"`
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// writeBench records one experiment's grid under -json. hists, when
// non-nil, is the serving kernel's histogram export for the run (only
// the non-empty distributions are kept — a bench that never commits has
// nothing to say about commit latency).
func writeBench(exp string, config map[string]any, rows []benchRow, hists map[string]gaea.HistogramSnapshot) {
	if *jsonDir == "" {
		return
	}
	kept := map[string]gaea.HistogramSnapshot{}
	for name, h := range hists {
		if h.Count > 0 {
			h.Buckets = nil // the summary suffices; buckets bloat the record
			kept[name] = h
		}
	}
	f := benchFile{
		Experiment:  exp,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Config:      config,
		Rows:        rows,
		Histograms:  kept,
	}
	b, err := json.MarshalIndent(&f, "", "  ")
	must(err)
	path := fmt.Sprintf("%s/BENCH_%s.json", *jsonDir, exp)
	must(os.WriteFile(path, append(b, '\n'), 0o644))
	fmt.Printf("(wrote %s)\n\n", path)
}

// checkBenchFile validates a BENCH_*.json against the schema the CI
// smoke step asserts: parseable, experiment named, every row carrying a
// metric, at least one sample, and a positive median.
func checkBenchFile(path string) {
	b, err := os.ReadFile(path)
	must(err)
	var f benchFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	must(dec.Decode(&f))
	if f.Experiment == "" || f.GeneratedAt == "" || len(f.Rows) == 0 {
		must(fmt.Errorf("%s: missing experiment, timestamp, or rows", path))
	}
	for _, r := range f.Rows {
		if r.Name == "" || r.Metric == "" || len(r.Samples) == 0 || r.Median <= 0 {
			must(fmt.Errorf("%s: row %q fails the schema (metric %q, %d samples, median %v)",
				path, r.Name, r.Metric, len(r.Samples), r.Median))
		}
	}
	for name, h := range f.Histograms {
		if h.Count <= 0 || h.Sum < 0 || h.P50 > h.P99 || h.P99 > h.Max {
			must(fmt.Errorf("%s: histogram %q fails the schema (count=%d sum=%d p50=%d p99=%d max=%d)",
				path, name, h.Count, h.Sum, h.P50, h.P99, h.Max))
		}
	}
	fmt.Printf("%s: ok (%s, %d rows, %d histograms)\n", path, f.Experiment, len(f.Rows), len(f.Histograms))
}

func parseInflight() []int {
	var depths []int
	for _, part := range strings.Split(*inflight, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			must(fmt.Errorf("bad -inflight entry %q", part))
		}
		depths = append(depths, n)
	}
	return depths
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gaea-bench:", err)
		os.Exit(1)
	}
}

func mustKernel(dir string) *gaea.Kernel {
	k, err := gaea.Open(dir, gaea.Options{NoSync: true, User: "bench", Workers: *workers})
	must(err)
	seedBenchSchema(k)
	return k
}

func seedBenchSchema(k *gaea.Kernel) {
	must(k.DefineClass(&catalog.Class{
		Name: "landsat_tm", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{
			{Name: "band", Type: value.TypeString},
			{Name: "data", Type: value.TypeImage},
		},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
	}))
	must(k.DefineClass(&catalog.Class{
		Name: "landcover", Kind: catalog.KindDerived, DerivedBy: "unsupervised_classification",
		Attrs: []catalog.Attr{
			{Name: "numclass", Type: value.TypeInt},
			{Name: "data", Type: value.TypeImage},
		},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
	}))
	must(k.DefineClass(&catalog.Class{
		Name: "land_cover_changes", Kind: catalog.KindDerived, DerivedBy: "change_map",
		Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
	}))
	for _, src := range []string{`
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
)`} {
		_, err := k.DefineProcess(src)
		must(err)
	}
}

func genScene(size, year int) []*raster.Image {
	l := raster.NewLandscape(99)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: size, Cols: size, DayOfYear: 170, Year: year, Noise: 0.01}
	imgs, err := l.GenerateScene(spec, []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR})
	must(err)
	return imgs
}

func loadScene(k *gaea.Kernel, size, year int) []object.OID {
	imgs := genScene(size, year)
	day := sptemp.Date(year, 6, 19)
	box := sptemp.NewBox(0, 0, float64(size*30), float64(size*30))
	// The bands of one scene land together: one session, one WAL commit.
	s := k.Begin(ctx)
	var oids []object.OID
	for i, img := range imgs {
		oid, err := s.Create(&object.Object{
			Class: "landsat_tm",
			Attrs: map[string]value.Value{
				"band": value.String_(fmt.Sprintf("b%d", i)),
				"data": value.Image{Img: img},
			},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, box, day),
		}, "")
		must(err)
		oids = append(oids, oid)
	}
	must(s.Commit())
	return oids
}

// loadSceneTile stores one scene in a disjoint spatial tile and returns
// the tile's box (for tile-local queries).
func loadSceneTile(k *gaea.Kernel, size, year, tile int) sptemp.Box {
	l := raster.NewLandscape(uint64(100 + tile))
	off := float64(tile) * float64(size*30+300)
	spec := raster.SceneSpec{OriginX: off, OriginY: 0, CellSize: 30, Rows: size, Cols: size, DayOfYear: 170, Year: year, Noise: 0.01}
	imgs, err := l.GenerateScene(spec, []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR})
	must(err)
	day := sptemp.Date(year, 6, 19)
	box := sptemp.NewBox(off, 0, off+float64(size*30), float64(size*30))
	s := k.Begin(ctx)
	for i, img := range imgs {
		_, err := s.Create(&object.Object{
			Class: "landsat_tm",
			Attrs: map[string]value.Value{
				"band": value.String_(fmt.Sprintf("b%d", i)),
				"data": value.Image{Img: img},
			},
			Extent: sptemp.AtInstant(sptemp.DefaultFrame, box, day),
		}, "")
		must(err)
	}
	must(s.Commit())
	return box
}

func timeIt(n int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

// F3: template overhead of process P20 vs direct operator calls.
func expF3() {
	fmt.Println("## F3 — Figure 3: process P20 (unsupervised classification)")
	fmt.Println("| scene | direct op | via process template | overhead |")
	fmt.Println("|---|---|---|---|")
	for _, size := range []int{32, 64, 128} {
		bands := genScene(size, 1986)
		direct := timeIt(3, func() {
			_, err := imgops.Unsuperclassify(bands, 12, imgops.ClassifyOptions{Seed: 1})
			must(err)
		})
		dir, err := os.MkdirTemp("", "gaea-bench-f3-*")
		must(err)
		k := mustKernel(dir)
		scene := loadScene(k, size, 1986)
		in := map[string][]object.OID{"bands": scene}
		viaProc := timeIt(3, func() {
			_, _, err := k.RunProcess(ctx, "unsupervised_classification", in, gaea.RunOptions{NoMemo: true})
			must(err)
		})
		k.Close()
		os.RemoveAll(dir)
		fmt.Printf("| %dx%dx3 | %v | %v | %+.0f%% |\n", size, size, direct.Round(time.Microsecond), viaProc.Round(time.Microsecond),
			100*(float64(viaProc)-float64(direct))/float64(direct))
	}
	fmt.Println()
}

// F4: Figure 4 network vs fused PCA.
func expF4() {
	fmt.Println("## F4 — Figure 4: PCA compound operator network")
	fmt.Println("| bands | network (5 stages) | fused | network/fused |")
	fmt.Println("|---|---|---|---|")
	l := raster.NewLandscape(4)
	all := []raster.Band{raster.BandBlue, raster.BandGreen, raster.BandRed, raster.BandNIR, raster.BandSWIR, raster.BandThermal}
	for _, nb := range []int{2, 4, 6} {
		spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 64, Cols: 64, DayOfYear: 170, Year: 1986, Noise: 0.01}
		bands, err := l.GenerateScene(spec, all[:nb])
		must(err)
		network := timeIt(5, func() {
			_, err := imgops.PCANetwork(bands, 2)
			must(err)
		})
		fused := timeIt(5, func() {
			_, err := imgops.PCA(bands, 2)
			must(err)
		})
		fmt.Printf("| %d | %v | %v | %.2fx |\n", nb, network.Round(time.Microsecond), fused.Round(time.Microsecond),
			float64(network)/float64(fused))
	}
	fmt.Println()
}

// F5 + T1: compound land-change detection — cold vs memoised vs baseline.
func expF5T1() {
	fmt.Println("## F5/T1 — Figure 5: land-change detection; task memoisation")
	const size = 48
	dir, err := os.MkdirTemp("", "gaea-bench-f5-*")
	must(err)
	defer os.RemoveAll(dir)
	k := mustKernel(dir)
	defer k.Close()
	tm1 := loadScene(k, size, 1986)
	tm2 := loadScene(k, size, 1989)
	in := map[string][]object.OID{"tm1": tm1, "tm2": tm2}

	start := time.Now()
	_, out, err := k.RunCompound(ctx, "land_change_detection", in, gaea.RunOptions{})
	must(err)
	cold := time.Since(start)

	warm := timeIt(10, func() {
		_, out2, err := k.RunCompound(ctx, "land_change_detection", in, gaea.RunOptions{})
		must(err)
		if out2 != out {
			must(fmt.Errorf("memo returned different output"))
		}
	})

	w, err := filegis.Open(dir + "/fg")
	must(err)
	for i, img := range genScene(size, 1986) {
		must(w.Import(fmt.Sprintf("tm86_%d", i), img))
	}
	for i, img := range genScene(size, 1989) {
		must(w.Import(fmt.Sprintf("tm89_%d", i), img))
	}
	baseline := timeIt(3, func() {
		must(w.Classify("lc86", []string{"tm86_0", "tm86_1", "tm86_2"}, 12))
		must(w.Classify("lc89", []string{"tm89_0", "tm89_1", "tm89_2"}, 12))
		must(w.Subtract("change", "lc89", "lc86"))
	})

	fmt.Println("| system | request | latency |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| gaea | cold derivation (3 tasks) | %v |\n", cold.Round(time.Microsecond))
	fmt.Printf("| gaea | repeat request (task memo) | %v |\n", warm.Round(time.Microsecond))
	fmt.Printf("| filegis baseline | every request recomputes | %v |\n", baseline.Round(time.Microsecond))
	fmt.Printf("\nmemo speedup over recomputation: %.0fx\n\n", float64(baseline)/float64(warm))
}

// Q1: the §2.1.5 fallback sequence.
func expQ1() {
	fmt.Println("## Q1 — §2.1.5 query sequence: retrieval / interpolation / derivation")
	const size = 32
	dir, err := os.MkdirTemp("", "gaea-bench-q1-*")
	must(err)
	defer os.RemoveAll(dir)
	k := mustKernel(dir)
	defer k.Close()
	s1 := loadScene(k, size, 1986)
	s2 := loadScene(k, size, 1988)
	for _, s := range [][]object.OID{s1, s2} {
		_, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": s}, gaea.RunOptions{})
		must(err)
	}
	pred := gaea.Request{Class: "landcover", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}
	retrieve := timeIt(20, func() {
		_, err := k.Query(ctx, pred)
		must(err)
	})
	i := 0
	interpolate := timeIt(5, func() {
		i++
		p := gaea.Request{Class: "landcover",
			Pred:       sptemp.NewExtent(sptemp.DefaultFrame, sptemp.EmptyBox(), sptemp.Instant(sptemp.Date(1987, 6, 1)+sptemp.AbsTime(i))),
			Strategies: []gaea.Strategy{gaea.Interpolate}}
		_, err := k.Query(ctx, p)
		must(err)
	})
	// Fresh kernel without the derived landcover: full derivation.
	dir2, err := os.MkdirTemp("", "gaea-bench-q1b-*")
	must(err)
	defer os.RemoveAll(dir2)
	k2 := mustKernel(dir2)
	defer k2.Close()
	loadScene(k2, size, 1986)
	start := time.Now()
	_, err = k2.Query(ctx, pred)
	must(err)
	derive := time.Since(start)

	fmt.Println("| path | latency |")
	fmt.Println("|---|---|")
	fmt.Printf("| 1. retrieval | %v |\n", retrieve.Round(time.Microsecond))
	fmt.Printf("| 2. temporal interpolation | %v |\n", interpolate.Round(time.Microsecond))
	fmt.Printf("| 3. derivation (plan + classify) | %v |\n", derive.Round(time.Microsecond))
	fmt.Println()
}

// C1: concurrent-query throughput. Scenes are loaded in disjoint spatial
// tiles; each query asks for the landcover of one tile, forcing a
// distinct derivation. Engine concurrency n means n client goroutines on
// a kernel opened with Workers=n. Future BENCH_*.json entries track the
// queries/sec columns.
func expC1() {
	fmt.Println("## C1 — concurrent derivation queries (worker pool + single-flight memo)")
	const size = 32
	const queries = 48
	run := func(n int) (qps float64) {
		dir, err := os.MkdirTemp("", "gaea-bench-c1-*")
		must(err)
		defer os.RemoveAll(dir)
		k, err := gaea.Open(dir, gaea.Options{NoSync: true, User: "bench", Workers: n})
		must(err)
		defer k.Close()
		seedBenchSchema(k)
		boxes := make([]sptemp.Box, queries)
		for i := 0; i < queries; i++ {
			boxes[i] = loadSceneTile(k, size, 1986, i)
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, n)
		next := make(chan int, queries)
		for i := 0; i < queries; i++ {
			next <- i
		}
		close(next)
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					pred := sptemp.TimelessExtent(sptemp.DefaultFrame, boxes[i])
					if _, err := k.Query(ctx, gaea.Request{Class: "landcover", Pred: pred}); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			must(err)
		default:
		}
		return float64(queries) / time.Since(start).Seconds()
	}
	seq := run(1)
	par := run(*workers)
	fmt.Println("| engine concurrency | derivation queries/sec |")
	fmt.Println("|---|---|")
	fmt.Printf("| 1 | %.1f |\n", seq)
	fmt.Printf("| %d | %.1f |\n", *workers, par)
	fmt.Printf("\nparallel speedup: %.2fx\n\n", par/seq)
}

// C2: mixed update/query workload — invalidation fan-out throughput.
// One base scene fans out to `fanout` change maps; every update of a base
// band invalidates the shared landcover plus all change maps, and the
// chosen -refresh policy brings them back: lazy re-derives on the next
// query, eager recomputes in the background, manual uses RefreshStale.
// Fan-out refreshes are independent, so throughput scales with -workers.
func expC2() {
	fmt.Printf("## C2 — update propagation: invalidation fan-out (policy=%s)\n", *refresh)
	const size = 16
	const fanout = 6
	const rounds = 8
	policy := gaea.RefreshPolicy(*refresh)
	run := func(n int) float64 {
		dir, err := os.MkdirTemp("", "gaea-bench-c2-*")
		must(err)
		defer os.RemoveAll(dir)
		k, err := gaea.Open(dir, gaea.Options{NoSync: true, User: "bench", Workers: n, RefreshPolicy: policy})
		must(err)
		defer k.Close()
		seedBenchSchema(k)
		base := loadScene(k, size, 1986)
		lc0, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": base}, gaea.RunOptions{})
		must(err)
		others := make([]object.OID, fanout)
		for i := 0; i < fanout; i++ {
			scene := loadScene(k, size, 1990+i)
			lci, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": scene}, gaea.RunOptions{})
			must(err)
			others[i] = lci.Output
			_, _, err = k.RunProcess(ctx, "change_map", map[string][]object.OID{"a": {lc0.Output}, "b": {lci.Output}}, gaea.RunOptions{})
			must(err)
		}
		variants := [2]*raster.Image{genScene(size, 1986)[0], genScene(size, 1987)[0]}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			o, err := k.Objects.Get(base[0])
			must(err)
			o.Attrs["data"] = value.Image{Img: variants[i%2]}
			must(k.UpdateObject(ctx, o))
			switch policy {
			case gaea.ManualRefresh:
				_, err := k.RefreshStale(ctx)
				must(err)
			case gaea.EagerRefresh:
				for len(k.Stale()) > 0 {
					time.Sleep(200 * time.Microsecond)
				}
			default:
				// Lazy: clients re-issue their standing derivations; the
				// stale memo hits refresh the recorded objects in place.
				_, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": base}, gaea.RunOptions{})
				must(err)
				for _, lci := range others {
					_, _, err := k.RunProcess(ctx, "change_map", map[string][]object.OID{"a": {lc0.Output}, "b": {lci}}, gaea.RunOptions{})
					must(err)
				}
				if n := len(k.Stale()); n > 0 {
					must(fmt.Errorf("C2: %d objects still stale after lazy touch", n))
				}
			}
		}
		invalidated := float64(rounds * (fanout + 1))
		return invalidated / time.Since(start).Seconds()
	}
	seq := run(1)
	par := run(*workers)
	fmt.Println("| engine concurrency | invalidations recovered/sec |")
	fmt.Println("|---|---|")
	fmt.Printf("| 1 | %.1f |\n", seq)
	fmt.Printf("| %d | %.1f |\n", *workers, par)
	fmt.Printf("\nfan-out recovery speedup: %.2fx\n\n", par/seq)
}

// C3: batched ingest — N single-op CreateObject commits (each its own WAL
// commit, load-task record, and invalidation sweep) vs ONE session
// carrying all N creates (one atomic WAL group, one sweep). Durability is
// ON here (no NoSync), so the fsync amortisation is visible.
func expC3() {
	fmt.Printf("## C3 — batched ingest: per-op commits vs one session (batch=%d)\n", *batch)
	gauge := func(i int) *object.Object {
		x := float64(i * 20)
		return &object.Object{
			Class:  "gauge",
			Attrs:  map[string]value.Value{"mm": value.Float(float64(i))},
			Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10)),
		}
	}
	open := func() (*gaea.Kernel, string) {
		dir, err := os.MkdirTemp("", "gaea-bench-c3-*")
		must(err)
		k, err := gaea.Open(dir, gaea.Options{User: "bench"})
		must(err)
		must(k.DefineClass(&catalog.Class{
			Name: "gauge", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
			Frame: sptemp.DefaultFrame, HasSpatial: true,
		}))
		return k, dir
	}

	k1, dir1 := open()
	start := time.Now()
	for i := 0; i < *batch; i++ {
		_, err := k1.CreateObject(ctx, gauge(i), "tape")
		must(err)
	}
	perOp := time.Since(start)
	must(k1.Close())
	os.RemoveAll(dir1)

	k2, dir2 := open()
	start = time.Now()
	s := k2.Begin(ctx)
	for i := 0; i < *batch; i++ {
		_, err := s.Create(gauge(i), "tape")
		must(err)
	}
	must(s.Commit())
	session := time.Since(start)
	must(k2.Close())
	os.RemoveAll(dir2)

	fmt.Println("| ingest path | total | objects/sec |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| %d single-op commits | %v | %.0f |\n", *batch, perOp.Round(time.Microsecond), float64(*batch)/perOp.Seconds())
	fmt.Printf("| 1 session commit | %v | %.0f |\n", session.Round(time.Microsecond), float64(*batch)/session.Seconds())
	fmt.Printf("\nsession speedup: %.1fx\n\n", float64(perOp)/float64(session))
}

// C4: MVCC snapshot isolation — N reader goroutines drain paginated
// snapshot streams (cursor resume between pages) over a class that one
// paced writer keeps rewriting with whole-class update sessions. Each
// drain checks the snapshot contract: every object read carries the same
// generation stamp, and no drain skips or double-sees an object. The
// table compares reader throughput with the writer off vs on — with
// version-chain reads the two should be close, because readers resolve
// at a pinned epoch instead of waiting on the writer's locks.
func expC4() {
	fmt.Printf("## C4 — MVCC: snapshot readers under a committing writer (readers=%d)\n", *mvcc)
	const nObj = 256
	dir, err := os.MkdirTemp("", "gaea-bench-c4-*")
	must(err)
	defer os.RemoveAll(dir)
	k, err := gaea.Open(dir, gaea.Options{NoSync: true, User: "bench"})
	must(err)
	defer k.Close()
	must(k.DefineClass(&catalog.Class{
		Name: "gauge", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}))
	seed := k.Begin(ctx)
	oids := make([]object.OID, 0, nObj)
	for i := 0; i < nObj; i++ {
		x := float64(i * 20)
		oid, err := seed.Create(&object.Object{
			Class:  "gauge",
			Attrs:  map[string]value.Value{"mm": value.Float(0)},
			Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10)),
		}, "")
		must(err)
		oids = append(oids, oid)
	}
	must(seed.Commit())

	pred := sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}
	drain := func() {
		cursor := ""
		seen := 0
		gen := -1.0
		for {
			st, err := k.QueryStream(ctx, gaea.Request{Class: "gauge", Pred: pred, Limit: 64, Cursor: cursor})
			must(err)
			for o, err := range st.All() {
				must(err)
				mm := float64(o.Attrs["mm"].(value.Float))
				if gen < 0 {
					gen = mm
				} else if mm != gen {
					must(fmt.Errorf("C4: drain straddled a commit: generation %v after %v", mm, gen))
				}
				seen++
			}
			cursor = st.Cursor()
			if cursor == "" {
				break
			}
		}
		if seen != nObj {
			must(fmt.Errorf("C4: drain saw %d objects, want %d (skip or phantom)", seen, nObj))
		}
	}
	run := func(withWriter bool, window time.Duration) (drains int, commits int) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if withWriter {
			wg.Add(1)
			go func() {
				defer wg.Done()
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
					s := k.Begin(ctx)
					for _, oid := range oids {
						o, err := k.Objects.Get(oid)
						must(err)
						o.Attrs["mm"] = value.Float(gen)
						must(s.Update(o))
					}
					if err := s.Commit(); err == nil {
						commits++
					}
				}
			}()
		}
		var total sync.WaitGroup
		counts := make([]int, *mvcc)
		deadline := time.Now().Add(window)
		for r := 0; r < *mvcc; r++ {
			total.Add(1)
			go func(r int) {
				defer total.Done()
				for time.Now().Before(deadline) {
					drain()
					counts[r]++
				}
			}(r)
		}
		total.Wait()
		close(stop)
		wg.Wait()
		for _, c := range counts {
			drains += c
		}
		return drains, commits
	}

	const window = 2 * time.Second
	idle, _ := run(false, window)
	contended, commits := run(true, window)
	_, _ = k.Checkpoint() // bound the version chains the writer grew

	fmt.Println("| writer | snapshot drains/s | object reads/s | commits/s |")
	fmt.Println("|---|---|---|---|")
	fmt.Printf("| off | %.0f | %.0f | — |\n", float64(idle)/window.Seconds(), float64(idle*nObj)/window.Seconds())
	fmt.Printf("| on (whole-class sessions) | %.0f | %.0f | %.0f |\n",
		float64(contended)/window.Seconds(), float64(contended*nObj)/window.Seconds(), float64(commits)/window.Seconds())
	if idle > 0 {
		fmt.Printf("\nreader retention under writes: %.0f%% (every drain saw one consistent snapshot)\n\n", 100*float64(contended)/float64(idle))
	}
}

// C5: the service layer — the remote protocol grid. N clients run
// tile-local retrieval (one object per query) against the embedded
// kernel, a remote connection at one request in flight, and remote
// pipelined at each -inflight depth sharing the same connections. The
// workload isolates per-request service overhead: framing, codec,
// round trip. Each row is repeated -repeats times; -json records the
// grid as BENCH_C5.json.
func expC5() {
	fmt.Printf("## C5 — service layer: remote protocol grid (clients=%d repeats=%d)\n", *serveClients, *repeats)
	const nObj = 256
	const queries = 4096
	dir, err := os.MkdirTemp("", "gaea-bench-c5-*")
	must(err)
	defer os.RemoveAll(dir)
	k, err := gaea.Open(dir+"/db", gaea.Options{NoSync: true, User: "bench"})
	must(err)
	defer k.Close()
	must(k.DefineClass(&catalog.Class{
		Name: "gauge", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}))
	boxes := make([]sptemp.Box, nObj)
	seed := k.Begin(ctx)
	for i := 0; i < nObj; i++ {
		x := float64(i * 20)
		boxes[i] = sptemp.NewBox(x, 0, x+10, 10)
		_, err := seed.Create(&object.Object{
			Class:  "gauge",
			Attrs:  map[string]value.Value{"mm": value.Float(float64(i))},
			Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, boxes[i]),
		}, "")
		must(err)
	}
	must(seed.Commit())

	sock := dir + "/gaea.sock"
	l, err := net.Listen("unix", sock)
	must(err)
	srv := k.NewServer(gaea.ServeOptions{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	// runOnce drives the full query budget through len(backends)*perConn
	// workers (worker w on backends[w%len]), so perConn is the requests
	// in flight per connection.
	runOnce := func(backends []client.Kernel, perConn int) (qps float64, p99 time.Duration) {
		workers := len(backends) * perConn
		next := make(chan int, queries)
		for i := 0; i < queries; i++ {
			next <- i
		}
		close(next)
		lats := make([][]time.Duration, workers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				b := backends[w%len(backends)]
				for i := range next {
					pred := sptemp.TimelessExtent(sptemp.DefaultFrame, boxes[i%nObj])
					t0 := time.Now()
					res, err := b.Query(ctx, gaea.Request{Class: "gauge", Pred: pred})
					must(err)
					if len(res.OIDs) != 1 {
						must(fmt.Errorf("C5: tile query saw %d objects", len(res.OIDs)))
					}
					lats[w] = append(lats[w], time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		total := time.Since(start)
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return float64(queries) / total.Seconds(), all[len(all)*99/100]
	}

	fmt.Println("| backend | queries/s (median) | p99 latency |")
	fmt.Println("|---|---|---|")
	var rows []benchRow
	measure := func(name, label, protocol string, mk func() client.Kernel, conns, perConn int) benchRow {
		backends := make([]client.Kernel, conns)
		for i := range backends {
			backends[i] = mk()
		}
		var samples []float64
		var lastP99 time.Duration
		for r := 0; r < *repeats; r++ {
			qps, p99 := runOnce(backends, perConn)
			samples = append(samples, qps)
			lastP99 = p99
		}
		for _, b := range backends {
			if c, ok := b.(*client.Conn); ok {
				must(c.Close())
			}
		}
		row := benchRow{
			Name: name, Metric: "queries_per_sec",
			Samples: samples, Median: median(samples),
			P99us: float64(lastP99.Microseconds()),
			Config: map[string]any{
				"protocol": protocol, "conns": conns, "inflight_per_conn": perConn,
			},
		}
		fmt.Printf("| %s | %.0f | %v |\n", label, row.Median, lastP99.Round(time.Microsecond))
		rows = append(rows, row)
		return row
	}

	n := *serveClients
	dialOpts := func(o client.Options) func() client.Kernel {
		return func() client.Kernel {
			c, err := client.Dial("unix://"+sock, o)
			must(err)
			return c
		}
	}
	emb := measure("embedded", "embedded (in-process)", "none",
		func() client.Kernel { return client.Embed(k) }, n, 1)
	v2 := measure("remote_v2", "remote (1 in flight)", "v2",
		dialOpts(client.Options{User: "bench"}), n, 1)
	best := v2
	for _, depth := range parseInflight() {
		r := measure(fmt.Sprintf("remote_v2_pipelined_%d", depth),
			fmt.Sprintf("remote pipelined (%d in flight/conn)", depth), "v2",
			dialOpts(client.Options{User: "bench"}), n, depth)
		if r.Median > best.Median {
			best = r
		}
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	must(srv.Shutdown(sctx))
	cancel()
	must(<-served)

	fmt.Printf("\nbest remote (%s): %.0f%% of embedded throughput\n\n", best.Name, 100*best.Median/emb.Median)
	writeBench("C5", map[string]any{
		"clients": n, "queries": queries, "objects": nObj,
		"repeats": *repeats, "inflight": parseInflight(), "transport": "unix socket",
	}, rows, k.StatsSnapshot().Metrics.Histograms)
}

// C6: sharded federation — the scatter-gather router against one
// kernel, same box, same workload, DURABLE WAL. Unlike the rest of the
// suite (NoSync, measuring CPU paths), C6 measures what the partitioned
// grid is for: independent shard WALs group-committing in parallel, and
// the vector-cursor merge draining N push streams at once.
//
// Two workloads per grid point:
//
//   - ingest: W workers, one create per commit. Round-robin placement
//     makes every commit a single-shard fast path (no 2PC), so each
//     commit pays exactly one shard's group-commit fsync and the
//     shards' WALs sync independently.
//   - scan: full drains of the striped extent through the scatter-
//     gather merge, objects per second.
//
// The baseline is the identical workload against one served kernel over
// remote v2 (the C5 transport). Per-shard commit p99s come from the
// router's ShardObserver hook and land in each fed row's config.
func expC6() {
	const ingestCommits = 2048
	const ingestWorkers = 16
	fmt.Printf("## C6 — sharded federation: durable ingest and scatter-gather scan (grid=%s workers=%d commits=%d repeats=%d)\n",
		*fedGrid, ingestWorkers, ingestCommits, *repeats)

	var grid []int
	for _, part := range strings.Split(*fedGrid, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 || n > 64 {
			must(fmt.Errorf("bad -fed-shards entry %q", part))
		}
		grid = append(grid, n)
	}

	gaugeObj := func(i int) *object.Object {
		x := float64(i%4096) * 20
		return &object.Object{
			Class:  "gauge",
			Attrs:  map[string]value.Value{"mm": value.Float(float64(i))},
			Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10)),
		}
	}
	scanReq := gaea.Request{Class: "gauge", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}

	// runIngest pushes the commit budget through W workers multiplexed
	// on the backend and reports commits/s plus the client-observed p99.
	runIngest := func(kern client.Kernel) (cps float64, p99 time.Duration) {
		next := make(chan int, ingestCommits)
		for i := 0; i < ingestCommits; i++ {
			next <- i
		}
		close(next)
		lats := make([][]time.Duration, ingestWorkers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < ingestWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range next {
					t0 := time.Now()
					s := kern.Begin(ctx)
					_, err := s.Create(gaugeObj(i), "")
					must(err)
					must(s.Commit())
					lats[w] = append(lats[w], time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		total := time.Since(start)
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return float64(ingestCommits) / total.Seconds(), all[len(all)*99/100]
	}

	// runScan fully drains the striped extent once, asserting the merge
	// returns every object exactly once, and reports objects/s.
	runScan := func(kern client.Kernel, want int) float64 {
		start := time.Now()
		st, err := kern.QueryStream(ctx, scanReq)
		must(err)
		n := 0
		for _, err := range st.All() {
			must(err)
			n++
		}
		if n != want {
			must(fmt.Errorf("C6: scan drained %d objects, want %d", n, want))
		}
		return float64(n) / time.Since(start).Seconds()
	}

	type c6Shard struct {
		k    *gaea.Kernel
		srv  *gaea.Server
		done chan error
		addr string
	}
	startShard := func(base string, i int) *c6Shard {
		k, err := gaea.Open(fmt.Sprintf("%s/shard%d", base, i), gaea.Options{User: "bench"}) // durable WAL
		must(err)
		must(k.DefineClass(&catalog.Class{
			Name: "gauge", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
			Frame: sptemp.DefaultFrame, HasSpatial: true,
		}))
		sock := fmt.Sprintf("%s/s%d.sock", base, i)
		l, err := net.Listen("unix", sock)
		must(err)
		s := &c6Shard{k: k, srv: k.NewServer(gaea.ServeOptions{PrepareDir: fmt.Sprintf("%s/prep%d", base, i)}),
			done: make(chan error, 1), addr: "unix://" + sock}
		go func() { s.done <- s.srv.Serve(l) }()
		return s
	}
	stopShard := func(s *c6Shard) {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		must(s.srv.Shutdown(sctx))
		cancel()
		must(<-s.done)
		must(s.k.Close())
	}

	fmt.Println("| backend | ingest commits/s (median) | ingest p99 | scan objects/s (median) |")
	fmt.Println("|---|---|---|---|")
	var rows []benchRow
	var baseHists map[string]gaea.HistogramSnapshot

	// measureBoth runs *repeats ingest samples then *repeats scan drains
	// against one backend, appending both rows.
	measureBoth := func(name, label string, kern client.Kernel, cfg map[string]any, perShardP99 func() map[string]any) (float64, float64) {
		var ingSamples []float64
		var lastP99 time.Duration
		created := 0
		// Warmup: grow the WAL and heap files past their first extents
		// (file-growth fsyncs are metadata-heavy and would bill the
		// first sample for filesystem setup, not commit throughput).
		runIngest(kern)
		created += ingestCommits
		for rep := 0; rep < *repeats; rep++ {
			cps, p99 := runIngest(kern)
			ingSamples = append(ingSamples, cps)
			lastP99 = p99
			created += ingestCommits
		}
		var scanSamples []float64
		for rep := 0; rep < *repeats; rep++ {
			scanSamples = append(scanSamples, runScan(kern, created))
		}
		ingCfg := map[string]any{}
		for k, v := range cfg {
			ingCfg[k] = v
		}
		if perShardP99 != nil {
			ingCfg["per_shard_p99_us"] = perShardP99()
		}
		ing := benchRow{Name: "ingest_" + name, Metric: "commits_per_sec",
			Samples: ingSamples, Median: median(ingSamples),
			P99us: float64(lastP99.Microseconds()), Config: ingCfg}
		scan := benchRow{Name: "scan_" + name, Metric: "objects_per_sec",
			Samples: scanSamples, Median: median(scanSamples), Config: cfg}
		rows = append(rows, ing, scan)
		fmt.Printf("| %s | %.0f | %v | %.0f |\n", label, ing.Median, lastP99.Round(time.Microsecond), scan.Median)
		return ing.Median, scan.Median
	}

	// Baseline: one durable served kernel, one v2 connection, the same
	// W workers multiplexed on it.
	baseDir, err := os.MkdirTemp("", "gaea-bench-c6-base-*")
	must(err)
	base := startShard(baseDir, 0)
	bc, err := client.Dial(base.addr, client.Options{User: "bench"})
	must(err)
	baseIngest, baseScan := measureBoth("remote_v2", "remote v2, one kernel", bc,
		map[string]any{"shards": 1, "protocol": "v2", "federated": false}, nil)
	must(bc.Close())
	baseHists = base.k.StatsSnapshot().Metrics.Histograms
	stopShard(base)
	os.RemoveAll(baseDir)

	fedIngest := map[int]float64{}
	fedScan := map[int]float64{}
	for _, n := range grid {
		dir, err := os.MkdirTemp("", "gaea-bench-c6-fed-*")
		must(err)
		shards := make([]*c6Shard, n)
		addrs := make([]string, n)
		owners := make([]int, n)
		for i := range shards {
			shards[i] = startShard(dir, i)
			addrs[i] = shards[i].addr
			owners[i] = i
		}
		var obsMu sync.Mutex
		perShard := map[int][]time.Duration{}
		r, err := fed.Open(addrs, fed.Options{
			Map:         map[string][]int{"gauge": owners},
			DecisionLog: dir + "/decisions",
			Client:      client.Options{User: "bench"},
			ShardObserver: func(shard int, op string, d time.Duration) {
				if op != "commit" {
					return
				}
				obsMu.Lock()
				perShard[shard] = append(perShard[shard], d)
				obsMu.Unlock()
			},
		})
		must(err)
		ing, scan := measureBoth(fmt.Sprintf("fed_%d", n), fmt.Sprintf("federation, %d shard(s)", n), r,
			map[string]any{"shards": n, "protocol": "v2", "federated": true},
			func() map[string]any {
				obsMu.Lock()
				defer obsMu.Unlock()
				out := map[string]any{}
				for shard, lats := range perShard {
					sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
					out[strconv.Itoa(shard)] = float64(lats[len(lats)*99/100].Microseconds())
				}
				return out
			})
		fedIngest[n], fedScan[n] = ing, scan
		must(r.Close())
		for _, s := range shards {
			stopShard(s)
		}
		os.RemoveAll(dir)
	}

	for _, n := range grid {
		fmt.Printf("federation at %d shard(s): ingest %.2fx, scan %.2fx vs one remote v2 kernel\n",
			n, fedIngest[n]/baseIngest, fedScan[n]/baseScan)
	}
	if runtime.NumCPU() < 4 {
		fmt.Printf("(note: %d CPU(s) — every shard shares the same core(s), so these multipliers measure\n"+
			" fsync overlap only; the commit path's CPU does not parallelise on this box)\n", runtime.NumCPU())
	}
	fmt.Println()
	writeBench("C6", map[string]any{
		"grid": grid, "workers": ingestWorkers, "commits": ingestCommits,
		"repeats": *repeats, "transport": "unix socket", "durable_wal": true,
	}, rows, baseHists)
}

// C7: pipelined ingest — W workers share ONE connection, each
// committing small sessions (8 creates per commit). The connection
// multiplexes them, so the commits overlap in the server and the WAL
// group-commits absorb the fan-in. The kernel runs NoSync so the wire,
// not fsync, is measured.
func expC7() {
	const c7Workers = 8
	const batchSz = 8
	const commits = 256
	fmt.Printf("## C7 — pipelined ingest: one connection, %d concurrent committers (repeats=%d)\n", c7Workers, *repeats)
	gauge := func(i int) *object.Object {
		x := float64(i * 20)
		return &object.Object{
			Class:  "gauge",
			Attrs:  map[string]value.Value{"mm": value.Float(float64(i))},
			Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10)),
		}
	}
	dir, err := os.MkdirTemp("", "gaea-bench-c7-*")
	must(err)
	defer os.RemoveAll(dir)
	k, err := gaea.Open(dir+"/db", gaea.Options{NoSync: true, User: "bench"})
	must(err)
	defer k.Close()
	must(k.DefineClass(&catalog.Class{
		Name: "gauge", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}))
	sock := dir + "/gaea.sock"
	l, err := net.Listen("unix", sock)
	must(err)
	srv := k.NewServer(gaea.ServeOptions{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	runOnce := func(c client.Kernel) float64 {
		next := make(chan int, commits)
		for i := 0; i < commits; i++ {
			next <- i
		}
		close(next)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < c7Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					s := c.Begin(ctx)
					for j := 0; j < batchSz; j++ {
						_, err := s.Create(gauge(i*batchSz+j), "tape")
						must(err)
					}
					must(s.Commit())
				}
			}()
		}
		wg.Wait()
		return float64(commits) / time.Since(start).Seconds()
	}

	fmt.Println("| protocol | session commits/s (median) |")
	fmt.Println("|---|---|")
	c, err := client.Dial("unix://"+sock, client.Options{User: "bench"})
	must(err)
	var samples []float64
	for r := 0; r < *repeats; r++ {
		samples = append(samples, runOnce(c))
	}
	must(c.Close())
	row := benchRow{
		Name: "remote_v2", Metric: "commits_per_sec",
		Samples: samples, Median: median(samples),
		Config: map[string]any{"conns": 1, "workers": c7Workers, "batch": batchSz},
	}
	fmt.Printf("| multiplexed | %.0f |\n\n", row.Median)

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	must(srv.Shutdown(sctx))
	cancel()
	must(<-served)

	writeBench("C7", map[string]any{
		"workers": c7Workers, "batch": batchSz, "commits": commits,
		"repeats": *repeats, "transport": "unix socket",
	}, []benchRow{row}, k.StatsSnapshot().Metrics.Histograms)
}

// expSlow (-slow) is the observability assertion, not a measurement: a
// kernel opened with a 1µs slow-op threshold runs one cold derivation
// query (milliseconds of planning + classification), which MUST land in
// the slow-op log with its span tree, and the query_ns histogram MUST
// have absorbed the sample. Exits non-zero otherwise, so CI can gate on
// the telemetry path actually recording.
func expSlow() {
	fmt.Println("## SLOW — slow-op log: a throttled derivation query must be captured")
	const size = 32
	dir, err := os.MkdirTemp("", "gaea-bench-slow-*")
	must(err)
	defer os.RemoveAll(dir)
	k, err := gaea.Open(dir, gaea.Options{
		NoSync: true, User: "bench", Workers: *workers,
		SlowOpThreshold: time.Microsecond,
	})
	must(err)
	defer k.Close()
	seedBenchSchema(k)
	loadScene(k, size, 1986)
	pred := gaea.Request{Class: "landcover", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}
	_, err = k.Query(ctx, pred)
	must(err)

	slow := k.Tracer.Slow()
	if len(slow) == 0 {
		must(fmt.Errorf("SLOW: slow-op log is empty after a cold derivation under a 1µs threshold"))
	}
	found := false
	for _, tr := range slow {
		if tr.Root == "query/run" {
			found = true
			fmt.Print(tr.Format())
		}
	}
	if !found {
		must(fmt.Errorf("SLOW: no query/run trace in the slow-op log (got %d other traces)", len(slow)))
	}
	h := k.StatsSnapshot().Metrics.Histograms["query_ns"]
	if h.Count == 0 || h.Max <= 0 {
		must(fmt.Errorf("SLOW: query_ns histogram recorded nothing (count=%d max=%d)", h.Count, h.Max))
	}
	fmt.Printf("query_ns: count=%d p50=%v p99=%v max=%v\n",
		h.Count, time.Duration(h.P50), time.Duration(h.P99), time.Duration(h.Max))
	fmt.Println("slow-op log: ok")
}

// P1: planner scaling with chain depth.
func expP1() {
	fmt.Println("## P1 — §2.1.6: Petri-net reachability and planning")
	fmt.Println("| net | operation | latency |")
	fmt.Println("|---|---|---|")
	for _, width := range []int{16, 64, 256} {
		n := petri.NewNet()
		for i := 0; i < width; i++ {
			must(n.AddTransition(petri.Transition{
				Name: fmt.Sprintf("t%d", i),
				In:   []petri.Arc{{Place: fmt.Sprintf("w%d", i), Weight: 1}},
				Out:  fmt.Sprintf("w%d", i+1),
			}))
		}
		m := petri.Marking{"w0": 1}
		target := fmt.Sprintf("w%d", width)
		d := timeIt(50, func() {
			if !n.CanDerive(m, target) {
				must(fmt.Errorf("unreachable"))
			}
		})
		fmt.Printf("| chain of %d transitions | reachability closure | %v |\n", width, d.Round(time.Microsecond))
	}
	fmt.Println()
}
