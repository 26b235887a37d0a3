package sptemp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func box(x1, y1, x2, y2 float64) Box { return NewBox(x1, y1, x2, y2) }

func TestNewBoxNormalises(t *testing.T) {
	b := NewBox(10, 20, 0, 5)
	if b.MinX != 0 || b.MinY != 5 || b.MaxX != 10 || b.MaxY != 20 {
		t.Fatalf("NewBox did not normalise corners: %+v", b)
	}
}

func TestEmptyBox(t *testing.T) {
	e := EmptyBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBox should be empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Fatal("empty box must have zero measure")
	}
	if e.Intersects(box(0, 0, 1, 1)) {
		t.Fatal("empty box must not intersect anything")
	}
}

func TestBoxAreaWidthHeight(t *testing.T) {
	b := box(1, 2, 4, 6)
	if got := b.Width(); got != 3 {
		t.Errorf("Width = %g, want 3", got)
	}
	if got := b.Height(); got != 4 {
		t.Errorf("Height = %g, want 4", got)
	}
	if got := b.Area(); got != 12 {
		t.Errorf("Area = %g, want 12", got)
	}
}

func TestBoxContains(t *testing.T) {
	outer := box(0, 0, 10, 10)
	inner := box(2, 2, 8, 8)
	if !outer.Contains(inner) {
		t.Error("outer should contain inner")
	}
	if inner.Contains(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.Contains(outer) {
		t.Error("a box should contain itself")
	}
	if !outer.Contains(EmptyBox()) {
		t.Error("every box contains the empty box")
	}
	if EmptyBox().Contains(outer) {
		t.Error("empty box contains nothing non-empty")
	}
}

func TestBoxIntersection(t *testing.T) {
	a := box(0, 0, 10, 10)
	b := box(5, 5, 15, 15)
	got := a.Intersection(b)
	want := box(5, 5, 10, 10)
	if !got.Equal(want) {
		t.Errorf("Intersection = %s, want %s", got, want)
	}
	c := box(20, 20, 30, 30)
	if !a.Intersection(c).IsEmpty() {
		t.Error("disjoint boxes must have empty intersection")
	}
	// Touching edges intersect with zero area.
	d := box(10, 0, 20, 10)
	edge := a.Intersection(d)
	if edge.IsEmpty() || edge.Area() != 0 {
		t.Errorf("edge intersection = %s, want degenerate non-empty", edge)
	}
}

func TestBoxUnion(t *testing.T) {
	a := box(0, 0, 1, 1)
	b := box(5, 5, 6, 6)
	got := a.Union(b)
	want := box(0, 0, 6, 6)
	if !got.Equal(want) {
		t.Errorf("Union = %s, want %s", got, want)
	}
	if !a.Union(EmptyBox()).Equal(a) {
		t.Error("union with empty is identity")
	}
	if !EmptyBox().Union(a).Equal(a) {
		t.Error("union with empty is identity (flipped)")
	}
}

func TestCommonBox(t *testing.T) {
	shared, err := CommonBox([]Box{box(0, 0, 10, 10), box(5, 5, 15, 15), box(5, 0, 12, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Equal(box(5, 5, 10, 8)) {
		t.Errorf("CommonBox = %s, want (5,5,10,8)", shared)
	}
	if _, err := CommonBox(nil); err == nil {
		t.Error("CommonBox over empty set must fail")
	}
	if _, err := CommonBox([]Box{box(0, 0, 1, 1), box(2, 2, 3, 3)}); err == nil {
		t.Error("CommonBox over disjoint boxes must fail")
	}
}

func TestBoxString(t *testing.T) {
	if got := box(1, 2, 3, 4).String(); got != "(1,2,3,4)" {
		t.Errorf("String = %q", got)
	}
	if got := EmptyBox().String(); got != "(empty)" {
		t.Errorf("empty String = %q", got)
	}
}

// randBox generates boxes (including occasional empty ones) for property
// tests.
func randBox(r *rand.Rand) Box {
	if r.Intn(10) == 0 {
		return EmptyBox()
	}
	x := r.Float64()*200 - 100
	y := r.Float64()*200 - 100
	return NewBox(x, y, x+r.Float64()*50, y+r.Float64()*50)
}

func TestBoxIntersectionPropertyBased(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Intersection is commutative and contained in both operands.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randBox(r), randBox(r)
		ab := a.Intersection(b)
		ba := b.Intersection(a)
		if !ab.Equal(ba) {
			return false
		}
		if !ab.IsEmpty() && (!a.Contains(ab) || !b.Contains(ab)) {
			return false
		}
		// Union contains both operands.
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestBoxIntersectsIffNonEmptyIntersection(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randBox(r), randBox(r)
		return a.Intersects(b) == !a.Intersection(b).IsEmpty()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoxUnionIsSmallestCover(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randBox(r), randBox(r)
		u := a.Union(b)
		if a.IsEmpty() && b.IsEmpty() {
			return u.IsEmpty()
		}
		// Shrinking the union on any side must lose a or b.
		eps := 1e-9
		for _, s := range []Box{
			{u.MinX + eps, u.MinY, u.MaxX, u.MaxY},
			{u.MinX, u.MinY + eps, u.MaxX, u.MaxY},
			{u.MinX, u.MinY, u.MaxX - eps, u.MaxY},
			{u.MinX, u.MinY, u.MaxX, u.MaxY - eps},
		} {
			if s.Contains(a) && s.Contains(b) {
				// Degenerate boxes (zero width/height) legitimately allow
				// this when the epsilon does not cross a boundary; check
				// measure instead.
				if u.Area() > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCommonBoxIsContainedInAll(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := NewBox(0, 0, 100, 100)
		n := 2 + r.Intn(5)
		boxes := make([]Box, n)
		for i := range boxes {
			// All boxes share the central region, so common() must succeed.
			boxes[i] = NewBox(r.Float64()*40, r.Float64()*40, 60+r.Float64()*40, 60+r.Float64()*40)
		}
		shared, err := CommonBox(boxes)
		if err != nil {
			return false
		}
		for _, b := range boxes {
			if !b.Contains(shared) {
				return false
			}
		}
		return base.Contains(shared)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
