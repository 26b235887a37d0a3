package interp

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/process"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/task"
	"gaea/internal/value"
)

type world struct {
	obj *object.Store
	ip  *Interpolator
}

func newWorld(t *testing.T) *world {
	t.Helper()
	st, err := storage.Open(t.TempDir(), storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cat, err := catalog.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	err = cat.Define(&catalog.Class{
		Name: "ndvi", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{
			{Name: "data", Type: value.TypeImage},
			{Name: "quality", Type: value.TypeFloat},
			{Name: "sensor", Type: value.TypeString},
		},
		Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cat.Define(&catalog.Class{
		Name: "static_map", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := adt.NewStandardRegistry()
	obj, err := object.Open(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := process.OpenManager(st, cat, reg)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := task.OpenExecutor(st, cat, reg, obj, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return &world{obj: obj, ip: &Interpolator{Cat: cat, Obj: obj, Reg: reg, Exec: exec}}
}

func (w *world) insertNDVI(t *testing.T, day sptemp.AbsTime, pixel float64, quality float64, box sptemp.Box) object.OID {
	t.Helper()
	img := raster.MustNew(4, 4, raster.PixFloat8)
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = pixel
	}
	img.SetFloat64s(vals)
	oid, err := w.obj.Insert(&object.Object{
		Class: "ndvi",
		Attrs: map[string]value.Value{
			"data":    value.Image{Img: img},
			"quality": value.Float(quality),
			"sensor":  value.String_("avhrr"),
		},
		Extent: sptemp.AtInstant(sptemp.DefaultFrame, box, day),
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestTemporalInterpolationMidpoint(t *testing.T) {
	w := newWorld(t)
	box := sptemp.NewBox(0, 0, 100, 100)
	before := w.insertNDVI(t, sptemp.Date(1986, 1, 1), 0.2, 0.9, box)
	after := w.insertNDVI(t, sptemp.Date(1986, 3, 1), 0.6, 0.5, box)

	mid := sptemp.Date(1986, 1, 30) // not exactly halfway; compute fraction
	oid, err := w.ip.Temporal(context.Background(), "ndvi", mid, sptemp.EmptyBox(), task.RunOptions{User: "interp-test"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.obj.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(mid-sptemp.Date(1986, 1, 1)) / float64(sptemp.Date(1986, 3, 1)-sptemp.Date(1986, 1, 1))
	wantPixel := 0.2*(1-frac) + 0.6*frac
	img, _ := value.AsImage(got.Attrs["data"])
	if v, _ := img.At(0, 0); math.Abs(v-wantPixel) > 1e-6 {
		t.Errorf("pixel = %g, want %g", v, wantPixel)
	}
	wantQ := 0.9*(1-frac) + 0.5*frac
	if q := float64(got.Attrs["quality"].(value.Float)); math.Abs(q-wantQ) > 1e-9 {
		t.Errorf("quality = %g, want %g", q, wantQ)
	}
	// Non-numeric attribute copied from the heavier endpoint.
	if got.Attrs["sensor"].(value.String_) != "avhrr" {
		t.Error("sensor attribute lost")
	}
	// Extent at the requested instant.
	if !got.Extent.HasTime || got.Extent.TimeIv.Start != mid {
		t.Errorf("extent time = %v", got.Extent.TimeIv)
	}
	// Derivation recorded with both inputs.
	task0, ok := w.ip.Exec.Producer(oid)
	if !ok {
		t.Fatal("interpolation must record a task")
	}
	if task0.Process != "temporal_interpolation" || task0.Version != 0 {
		t.Errorf("task = %+v", task0)
	}
	if task0.Inputs["before"][0] != before || task0.Inputs["after"][0] != after {
		t.Errorf("task inputs = %v", task0.Inputs)
	}
}

func TestTemporalInterpolationOutOfRange(t *testing.T) {
	w := newWorld(t)
	box := sptemp.NewBox(0, 0, 100, 100)
	w.insertNDVI(t, sptemp.Date(1986, 1, 1), 0.2, 0.9, box)
	w.insertNDVI(t, sptemp.Date(1986, 3, 1), 0.6, 0.5, box)
	// Before the first observation.
	if _, err := w.ip.Temporal(context.Background(), "ndvi", sptemp.Date(1985, 1, 1), sptemp.EmptyBox(), task.RunOptions{}); !errors.Is(err, ErrNoBracket) {
		t.Errorf("early err = %v", err)
	}
	// After the last.
	if _, err := w.ip.Temporal(context.Background(), "ndvi", sptemp.Date(1990, 1, 1), sptemp.EmptyBox(), task.RunOptions{}); !errors.Is(err, ErrNoBracket) {
		t.Errorf("late err = %v", err)
	}
	// Timeless class rejected.
	if _, err := w.ip.Temporal(context.Background(), "static_map", sptemp.Date(1986, 1, 1), sptemp.EmptyBox(), task.RunOptions{}); !errors.Is(err, ErrBadClass) {
		t.Errorf("timeless err = %v", err)
	}
	// Unknown class.
	if _, err := w.ip.Temporal(context.Background(), "ghost", sptemp.Date(1986, 1, 1), sptemp.EmptyBox(), task.RunOptions{}); err == nil {
		t.Error("unknown class must fail")
	}
}

func TestSpatialInterpolationIDW(t *testing.T) {
	w := newWorld(t)
	day := sptemp.Date(1986, 6, 1)
	// Two tiles east and west of the target, equidistant.
	w.insertNDVI(t, day, 0.2, 1, sptemp.NewBox(0, 0, 100, 100))   // center (50,50)
	w.insertNDVI(t, day, 0.6, 0, sptemp.NewBox(200, 0, 300, 100)) // center (250,50)
	target := sptemp.NewBox(100, 0, 200, 100)                     // center (150,50)

	oid, err := w.ip.Spatial(context.Background(), "ndvi", target, day, 2, task.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.obj.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := value.AsImage(got.Attrs["data"])
	// Equidistant: plain average.
	if v, _ := img.At(0, 0); math.Abs(v-0.4) > 1e-6 {
		t.Errorf("pixel = %g, want 0.4", v)
	}
	if !got.Extent.Space.Equal(target) {
		t.Errorf("extent = %s", got.Extent.Space)
	}
	tk, ok := w.ip.Exec.Producer(oid)
	if !ok || tk.Process != "spatial_interpolation" {
		t.Errorf("task = %+v", tk)
	}
	if len(tk.Inputs["neighbors"]) != 2 {
		t.Errorf("neighbors = %v", tk.Inputs)
	}
}

func TestSpatialInterpolationExactHit(t *testing.T) {
	w := newWorld(t)
	day := sptemp.Date(1986, 6, 1)
	w.insertNDVI(t, day, 0.3, 1, sptemp.NewBox(0, 0, 100, 100))
	w.insertNDVI(t, day, 0.9, 1, sptemp.NewBox(500, 500, 600, 600))
	// Target centered exactly on the first tile: weight collapses to it.
	oid, err := w.ip.Spatial(context.Background(), "ndvi", sptemp.NewBox(0, 0, 100, 100), day, 2, task.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := w.obj.Get(oid)
	img, _ := value.AsImage(got.Attrs["data"])
	// The blend pipeline runs in float4, so compare at single precision.
	if v, _ := img.At(0, 0); math.Abs(v-0.3) > 1e-6 {
		t.Errorf("exact hit pixel = %g, want 0.3", v)
	}
}

func TestSpatialInterpolationNoNeighbors(t *testing.T) {
	w := newWorld(t)
	if _, err := w.ip.Spatial(context.Background(), "ndvi", sptemp.NewBox(0, 0, 1, 1), sptemp.Date(1986, 1, 1), 2, task.RunOptions{}); !errors.Is(err, ErrNoNeighbor) {
		t.Errorf("no neighbours err = %v", err)
	}
}

func TestBlendValuesValidation(t *testing.T) {
	reg := adt.NewStandardRegistry()
	if _, err := blendValues(reg, value.TypeFloat, nil, nil); err == nil {
		t.Error("empty blend must fail")
	}
	if _, err := blendValues(reg, value.TypeFloat, []value.Value{value.Float(1)}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch must fail")
	}
	// Int blend rounds.
	v, err := blendValues(reg, value.TypeInt, []value.Value{value.Int(1), value.Int(2)}, []float64{0.5, 0.5})
	if err != nil || v.(value.Int) != 2 {
		t.Errorf("int blend = %v, %v", v, err)
	}
}

// TestTemporalSingleFlight: concurrent identical interpolations must
// share one stored object instead of inserting duplicates.
func TestTemporalSingleFlight(t *testing.T) {
	w := newWorld(t)
	box := sptemp.NewBox(0, 0, 100, 100)
	w.insertNDVI(t, sptemp.Date(1986, 1, 1), 0.2, 0.9, box)
	w.insertNDVI(t, sptemp.Date(1986, 3, 1), 0.6, 0.5, box)
	mid := sptemp.Date(1986, 1, 31)

	const n = 8
	// Only callers that overlap share a flight, so hold the leader inside
	// its flight (the staleness hook runs there) until every caller is on
	// its way in. It used to be the blob fsync that kept the flight open
	// long enough; a NoSync store no longer does one. Nothing observable
	// says a waiter has joined, hence the grace period after the count.
	var entered atomic.Int32
	var gate sync.Once
	w.ip.Stale = func(object.OID) bool {
		gate.Do(func() {
			for entered.Load() < n {
				runtime.Gosched()
			}
			time.Sleep(20 * time.Millisecond)
		})
		return false
	}
	var wg sync.WaitGroup
	oids := make([]object.OID, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			entered.Add(1)
			oids[i], errs[i] = w.ip.Temporal(context.Background(), "ndvi", mid, sptemp.EmptyBox(), task.RunOptions{})
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if oids[i] != oids[0] {
			t.Errorf("caller %d got object %d, want shared %d", i, oids[i], oids[0])
		}
	}
	// 2 stored observations + exactly 1 interpolated object.
	if got := w.obj.Count("ndvi"); got != 3 {
		t.Errorf("ndvi objects = %d, want 3 (no duplicate interpolations)", got)
	}
}
