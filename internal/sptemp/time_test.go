package sptemp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestAbsTimeConversions(t *testing.T) {
	d := Date(1986, time.January, 15)
	if got := d.Time().Format("2006-01-02"); got != "1986-01-15" {
		t.Errorf("Date round trip = %s", got)
	}
	a := Date(1990, time.March, 1)
	if got := Date(1990, time.March, 2).Sub(a); got != 24*time.Hour {
		t.Errorf("Sub across a day = %s", got)
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(Date(1988, 1, 1), Date(1989, 1, 1))
	if iv.IsEmpty() {
		t.Fatal("interval should be non-empty")
	}
	if !iv.Intersects(Instant(Date(1988, 6, 15))) {
		t.Error("should contain midpoint")
	}
	if !iv.Intersects(Instant(iv.Start)) || !iv.Intersects(Instant(iv.End)) {
		t.Error("closed interval contains endpoints")
	}
	if iv.Intersects(Instant(Date(1990, 1, 1))) {
		t.Error("should not contain later date")
	}
	// Constructor normalises order.
	swapped := NewInterval(Date(1989, 1, 1), Date(1988, 1, 1))
	if !swapped.Equal(iv) {
		t.Error("NewInterval should normalise endpoint order")
	}
	inst := Instant(Date(1988, 1, 1))
	if inst.IsEmpty() || inst.Start != inst.End {
		t.Errorf("instant = %s", inst)
	}
	if !EmptyInterval().IsEmpty() {
		t.Error("empty interval is not empty")
	}
}

func TestIntervalSetOps(t *testing.T) {
	a := NewInterval(Date(1988, 1, 1), Date(1988, 12, 31))
	b := NewInterval(Date(1988, 6, 1), Date(1989, 6, 1))
	inter := a.Intersection(b)
	if inter.Start != Date(1988, 6, 1) || inter.End != Date(1988, 12, 31) {
		t.Errorf("Intersection = %s", inter)
	}
	u := a.Union(b)
	if u.Start != a.Start || u.End != b.End {
		t.Errorf("Union = %s", u)
	}
	c := NewInterval(Date(1995, 1, 1), Date(1996, 1, 1))
	if !a.Intersection(c).IsEmpty() {
		t.Error("disjoint intervals have empty intersection")
	}
	if !a.ContainsInterval(NewInterval(Date(1988, 3, 1), Date(1988, 4, 1))) {
		t.Error("a should contain inner interval")
	}
	if !a.ContainsInterval(EmptyInterval()) {
		t.Error("every interval contains empty")
	}
}

func randInterval(r *rand.Rand) Interval {
	if r.Intn(12) == 0 {
		return EmptyInterval()
	}
	start := AbsTime(r.Int63n(1_000_000))
	return NewInterval(start, start+AbsTime(r.Int63n(100_000)))
}

func TestIntervalIntersectionCommutesAndShrinks(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randInterval(r), randInterval(r)
		ab, ba := a.Intersection(b), b.Intersection(a)
		if !ab.Equal(ba) {
			return false
		}
		if !ab.IsEmpty() && (!a.ContainsInterval(ab) || !b.ContainsInterval(ab)) {
			return false
		}
		u := a.Union(b)
		return u.ContainsInterval(a) && u.ContainsInterval(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCommonInterval(t *testing.T) {
	ivs := []Interval{
		NewInterval(Date(1986, 1, 1), Date(1986, 3, 1)),
		NewInterval(Date(1986, 2, 1), Date(1986, 4, 1)),
		NewInterval(Date(1986, 2, 15), Date(1986, 3, 15)),
	}
	shared, err := CommonInterval(ivs)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Start != Date(1986, 2, 15) || shared.End != Date(1986, 3, 1) {
		t.Errorf("CommonInterval = %s", shared)
	}
	if _, err := CommonInterval(nil); err == nil {
		t.Error("common over nothing must fail")
	}
	ivs = append(ivs, NewInterval(Date(1990, 1, 1), Date(1991, 1, 1)))
	if _, err := CommonInterval(ivs); err == nil {
		t.Error("disjoint member must fail common()")
	}
}

func TestCommonTimestamps(t *testing.T) {
	ts := []AbsTime{Date(1986, 1, 1), Date(1986, 1, 2), Date(1986, 1, 3)}
	got, err := CommonTimestamps(ts, 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got != Date(1986, 1, 1) {
		t.Errorf("CommonTimestamps = %s", got)
	}
	if _, err := CommonTimestamps(ts, time.Hour); err == nil {
		t.Error("tolerance exceeded should fail")
	}
	if _, err := CommonTimestamps(nil, time.Hour); err == nil {
		t.Error("empty set should fail")
	}
}

func TestExtentMatches(t *testing.T) {
	frame := DefaultFrame
	scene := AtInstant(frame, box(0, 0, 100, 100), Date(1986, 1, 15))
	// Spatial + temporal predicate hitting the scene.
	pred := NewExtent(frame, box(50, 50, 60, 60), NewInterval(Date(1986, 1, 1), Date(1986, 2, 1)))
	if !scene.Matches(pred) {
		t.Error("scene should match overlapping predicate")
	}
	// Wrong frame.
	badFrame := NewExtent(Frame{System: RefLongLat, Unit: UnitDegree}, box(50, 50, 60, 60), pred.TimeIv)
	if scene.Matches(badFrame) {
		t.Error("frame mismatch must not match")
	}
	// Disjoint space.
	if scene.Matches(NewExtent(frame, box(500, 500, 600, 600), pred.TimeIv)) {
		t.Error("disjoint space must not match")
	}
	// Disjoint time.
	if scene.Matches(NewExtent(frame, box(50, 50, 60, 60), NewInterval(Date(1990, 1, 1), Date(1991, 1, 1)))) {
		t.Error("disjoint time must not match")
	}
	// Predicate without time matches any time.
	if !scene.Matches(TimelessExtent(frame, box(50, 50, 60, 60))) {
		t.Error("timeless predicate should match")
	}
	// Timeless object matches any time predicate.
	terrain := TimelessExtent(frame, box(0, 0, 100, 100))
	if !terrain.Matches(pred) {
		t.Error("timeless object should match timed predicate")
	}
}

func TestCommonExtent(t *testing.T) {
	frame := DefaultFrame
	exts := []Extent{
		AtInstant(frame, box(0, 0, 10, 10), Date(1986, 1, 1)),
		AtInstant(frame, box(5, 5, 15, 15), Date(1986, 1, 1)),
	}
	shared, err := CommonExtent(exts)
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Space.Equal(box(5, 5, 10, 10)) {
		t.Errorf("shared space = %s", shared.Space)
	}
	if !shared.HasTime || shared.TimeIv.Start != Date(1986, 1, 1) {
		t.Errorf("shared time = %s", shared.TimeIv)
	}
	// Frame mismatch fails.
	exts[1].Frame = Frame{System: RefLongLat, Unit: UnitDegree}
	if _, err := CommonExtent(exts); err == nil {
		t.Error("frame mismatch must fail common()")
	}
	// Temporal mismatch fails.
	exts[1].Frame = frame
	exts[1].TimeIv = Instant(Date(1999, 1, 1))
	if _, err := CommonExtent(exts); err == nil {
		t.Error("temporal mismatch must fail common()")
	}
	if _, err := CommonExtent(nil); err == nil {
		t.Error("empty set must fail")
	}
}

func TestFrameValidate(t *testing.T) {
	if err := DefaultFrame.Validate(); err != nil {
		t.Errorf("default frame should validate: %v", err)
	}
	if err := (Frame{System: "mars", Unit: UnitMeter}).Validate(); err == nil {
		t.Error("unknown system must fail")
	}
	if err := (Frame{System: RefUTM, Unit: "cubit"}).Validate(); err == nil {
		t.Error("unknown unit must fail")
	}
	if err := (Frame{System: RefLongLat, Unit: UnitMeter}).Validate(); err == nil {
		t.Error("long/lat in meters must fail")
	}
}
