package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gaea"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/value"
)

// testScale shrinks every workload 200-fold so the file runs in seconds.
const testScale = 1.0 / 200

func smallRun(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	r, err := run(context.Background(), config{workload: workload, seed: seed, seconds: runSeconds,
		trace: trace, scale: testScale, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r
}

// Every workload, both kinds of run: no op fails and the output carries
// exactly the manifest's metrics, as -check demands.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r := smallRun(t, w.Name, 1, trace)
			out := r.build()
			if out.Failed != 0 || !out.Correct {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.Name, trace, out.Failed, out.Attempted)
			}
			if err := out.validate(builtinManifest()); err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
				if len(r.traced.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
			}
			if len(out.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(out.Metrics), want)
			}
		}
	}
}

// The last line of a report is the contract's JSON object and nothing else.
func TestContractLine(t *testing.T) {
	r := smallRun(t, "remote-point", 3, false)
	out := r.build()
	var buf bytes.Buffer
	if err := out.print(&buf, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("contract line lacks %q", k)
		}
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || len(metrics) != len(endToEnd) {
		t.Errorf("contract line has %d keys and %d metrics", len(line), len(metrics))
	}
	for name, m := range metrics {
		if _, ok := m["value"].(float64); !ok || len(m) != 2 || m["unit"] == "" {
			t.Errorf("metric %s is %v, want exactly a value and a unit", name, m)
		}
	}
}

// The same seed issues the same op sequence and leaves the same bytes on
// disk per user byte; another seed issues other ops.
func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloads {
		a, b, c := smallRun(t, w.Name, 7, false), smallRun(t, w.Name, 7, false), smallRun(t, w.Name, 8, false)
		if a.digest != b.digest {
			t.Errorf("%s: same seed, op digests %x and %x", w.Name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 issued the same ops", w.Name)
		}
		if a.userBytes != b.userBytes {
			t.Errorf("%s: same seed, user bytes %d and %d", w.Name, a.userBytes, b.userBytes)
		}
		// Read-only and single-writer-per-object workloads lay out the same
		// pages; concurrent committers may interleave differently.
		if ra, rb := float64(a.diskBytes)/float64(a.userBytes), float64(b.diskBytes)/float64(b.userBytes); w.Name == "ingest-verify" {
			if math.Abs(ra-rb) > 0.01*ra {
				t.Errorf("%s: same seed, disk bytes per user byte %v and %v", w.Name, ra, rb)
			}
		} else if ra != rb {
			t.Errorf("%s: same seed, disk bytes per user byte %v and %v", w.Name, ra, rb)
		}
	}
}

// ISSUE 15's derive-refresh op re-derives through a Derive query. At the
// commit that defined the benchmark the planner answers such a query over
// a tile with one stale land cover by binding the fresh land cover to
// both arguments of change_map: a new, all-zero change map, the stale
// pair left stale. The workload therefore refreshes with
// Deriv.RefreshObject (derive.go). This test keeps that reason checkable:
// it skips while the planner answers wrongly, and once it passes the
// workload's op can return to Strategies: [Derive], as a change of the
// benchmark alone, re-baselined.
func TestDeriveQueryOverStaleTile(t *testing.T) {
	ctx := context.Background()
	w := newDerive(testScale, 1).(*deriveWorkload)
	k, err := gaea.Open(t.TempDir(), w.options())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if err := w.load(ctx, k); err != nil {
		t.Fatal(err)
	}
	tile := &w.tiles[0]
	corrected := &object.Object{OID: tile.band0.OID, Class: tile.band0.Class, Extent: tile.band0.Extent,
		Attrs: map[string]value.Value{"band": tile.band0.Attrs["band"], "data": value.Image{Img: tile.variants[1]}}}
	if err := k.UpdateObject(ctx, corrected); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(k.Stale(), []object.OID{tile.lc1, tile.changes}) {
		t.Fatalf("after the correction %v are stale, want land cover %d and change map %d", k.Stale(), tile.lc1, tile.changes)
	}
	res, err := k.Query(ctx, gaea.Request{Class: changesClass, Pred: tile.pred, Strategies: []gaea.Strategy{gaea.Derive}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.OIDs, []object.OID{tile.changes}) || len(k.Stale()) != 0 {
		t.Skipf("planner bug stands (ROADMAP: derived-data oracle): a Derive query over the stale tile answered %v, want [%d], and left %v stale",
			res.OIDs, tile.changes, k.Stale())
	}
}

// BENCHMARK.json is the published copy of the tables in manifest.go and
// stays inside the manifest's limits.
func TestManifestFile(t *testing.T) {
	file, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(file)
	want, _ := json.Marshal(builtinManifest())
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from manifest.go:\n file: %s\n code: %s", got, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.10 || d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v (set-up has the largest, none above a tenth)", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", d)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.95, 10}, {0.9, 9}, {0.91, 10}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("an empty sample must read 0")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// quartiles and spread follow Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12.0, 16.5]
	q1, q2, q3 = quartiles([]float64{10, 11, 12, 13, 20})
	if q1 != 10.5 || q2 != 12 || q3 != 16.5 {
		t.Errorf("quartiles = %v %v %v, want 10.5 12 16.5", q1, q2, q3)
	}
	if s := spread([]float64{10, 11, 12, 13, 20}); s != 0.5 {
		t.Errorf("spread = %v, want 0.5", s)
	}
	if w := worsening(100, 90, false); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("a throughput falling from 100 to 90 worsens by %v", w)
	}
	if w := worsening(100, 90, true); math.Abs(w+0.1) > 1e-12 {
		t.Errorf("a latency falling from 100 to 90 worsens by %v", w)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100, Calls: 1},
		{ID: 2, Parent: 1, Name: "kernel", Start: 100, End: 130, Calls: 1},
		{ID: 3, Parent: 2, Name: "object", Start: 130, End: 140, Calls: 1},
		{ID: 4, Parent: 1, Name: "codec", Start: 140, End: 300, Calls: 16}, // 10 per call
		{ID: 5, Parent: 3, Name: "overrun", Start: 0, End: 50, Calls: 1},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]float64{1: 60, 2: 20, 3: 0, 4: 10, 5: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if d := spans[3].perCall(); d != 10 {
		t.Errorf("per-call duration of codec = %v, want 10", d)
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	at := opSpan{rec: none}
	ran := 0
	if id := at.timed(0, "x", 3, func() { ran++ }); id != 0 || ran != 3 {
		t.Errorf("untraced timed returned %d after %d calls", id, ran)
	}
	none.value("v", 1) // must not panic
	rec := &recorder{client: 2}
	at = opSpan{rec: rec, op: 9}
	at.root = rec.begin(9, 0, "root")
	child := at.timed(at.root, "child", 4, func() {})
	rec.end(at.root, 1)
	if len(rec.spans) != 2 || rec.spans[1].Parent != at.root || rec.spans[1].Calls != 4 || child == at.root {
		t.Errorf("recorded %+v", rec.spans)
	}
	if rec.spans[0].End < rec.spans[1].End {
		t.Errorf("root ended before its child: %+v", rec.spans)
	}
}

func TestUserBytes(t *testing.T) {
	g := gaugeObject(3, 1.5)
	if n, err := userBytes(g); err != nil || n != 4*8+int64(mustLen(t, value.Float(1.5))) {
		t.Errorf("gauge user bytes = %d, %v", n, err)
	}
	img := raster.MustNew(4, 4, raster.PixFloat4)
	timed := &object.Object{Class: "landsat_tm",
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, tileBox(0), sptemp.Date(1986, 6, 19)),
		Attrs:  map[string]value.Value{"band": value.String_("b0"), "data": value.Image{Img: img}}}
	want := int64(4*8 + 2*8 + mustLen(t, value.String_("b0")) + mustLen(t, value.Image{Img: img}))
	if n, err := userBytes(timed); err != nil || n != want {
		t.Errorf("band user bytes = %d, %v, want %d", n, err, want)
	}
	if int64(mustLen(t, value.Image{Img: img})) < int64(img.Pixels()*4) {
		t.Error("an image's user bytes must cover its pixels")
	}
}

func mustLen(t *testing.T, v value.Value) int {
	t.Helper()
	enc, err := value.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return len(enc)
}

func TestTilesPredMeetsExactlyItsTiles(t *testing.T) {
	pred := tilesPred(5, 3)
	for tile, want := range map[int]bool{4: false, 5: true, 6: true, 7: true, 8: false} {
		if got := sptemp.TimelessExtent(sptemp.DefaultFrame, tileBox(tile)).Matches(pred); got != want {
			t.Errorf("tile %d matches tiles [5,8): %v, want %v", tile, got, want)
		}
	}
}
