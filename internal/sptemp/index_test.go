package sptemp

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// gridModel is a GridIndex together with what its owner keeps: the box of
// every indexed id. It is also the brute-force oracle.
type gridModel struct {
	g     *GridIndex
	boxes map[uint64]Box
}

func newGridModel(cell float64) *gridModel {
	m := &gridModel{boxes: make(map[uint64]Box)}
	m.g = NewGridIndex(cell, func(id uint64) Box { return m.boxes[id] })
	return m
}

// put inserts id, or replaces its box.
func (m *gridModel) put(id uint64, b Box) {
	m.del(id)
	m.boxes[id] = b
	m.g.Insert(id, b)
}

func (m *gridModel) del(id uint64) {
	if old, ok := m.boxes[id]; ok {
		m.g.Delete(id, old)
		delete(m.boxes, id)
	}
}

func (m *gridModel) brute(q Box) []uint64 {
	var want []uint64
	for id, b := range m.boxes {
		if b.Intersects(q) {
			want = append(want, id)
		}
	}
	slices.Sort(want)
	return want
}

// check compares Search with the brute-force filter: same ids, ascending,
// each once.
func (m *gridModel) check(t *testing.T, q Box) {
	t.Helper()
	got, want := m.g.Search(q), m.brute(q)
	if !slices.Equal(got, want) {
		t.Fatalf("Search(%v) = %v, brute force says %v\nboxes: %v", q, got, want, m.boxes)
	}
}

func TestGridIndexBasics(t *testing.T) {
	m := newGridModel(10)
	m.put(1, box(0, 0, 5, 5))
	m.put(2, box(20, 20, 25, 25))
	m.put(3, box(3, 3, 22, 22)) // spans multiple cells

	got := m.g.Search(box(1, 1, 4, 4))
	if !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Errorf("Search = %v, want [1 3]", got)
	}
	got = m.g.Search(box(21, 21, 24, 24))
	if !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Errorf("Search = %v, want [2 3]", got)
	}
	if got := m.g.Search(box(100, 100, 110, 110)); len(got) != 0 {
		t.Errorf("Search far away = %v, want none", got)
	}
	if got := m.g.Search(EmptyBox()); got != nil {
		t.Errorf("Search empty box = %v", got)
	}
}

func TestGridIndexDeleteAndReplace(t *testing.T) {
	m := newGridModel(10)
	m.put(1, box(0, 0, 5, 5))
	m.del(1)
	if got := m.g.Search(box(0, 0, 10, 10)); len(got) != 0 || m.g.cells.Len() != 0 {
		t.Errorf("delete left %v in %d cells", got, m.g.cells.Len())
	}
	m.g.Delete(42, box(0, 0, 5, 5)) // absent id is a no-op
	m.put(1, box(0, 0, 5, 5))
	m.put(1, box(50, 50, 55, 55)) // replace moves the entry
	if got := m.g.Search(box(0, 0, 10, 10)); len(got) != 0 {
		t.Errorf("old position still indexed: %v", got)
	}
	if got := m.g.Search(box(49, 49, 56, 56)); !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("new position not indexed: %v", got)
	}
}

func TestGridIndexNegativeCoordinates(t *testing.T) {
	m := newGridModel(10)
	m.put(1, box(-25, -25, -15, -15))
	if got := m.g.Search(box(-20, -20, -18, -18)); !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("negative-coordinate search = %v", got)
	}
	if got := m.g.Search(box(5, 5, 6, 6)); len(got) != 0 {
		t.Errorf("should not match positive quadrant: %v", got)
	}
}

// TestGridIndexAlignedTileOneCell: a tile whose edges lie on cell
// boundaries occupies the one cell it has area in, and a query that only
// touches it — from either side, or at a corner — still finds it.
func TestGridIndexAlignedTileOneCell(t *testing.T) {
	m := newGridModel(10)
	m.put(7, box(20, 0, 30, 10))
	if m.g.cells.Len() != 1 {
		t.Fatalf("an aligned tile occupies %d cells, want 1", m.g.cells.Len())
	}
	for _, q := range []Box{
		box(30, 0, 40, 10),    // tile MaxX == query MinX
		box(10, 0, 20, 10),    // tile MinX == query MaxX
		box(20, 10, 30, 20),   // tile MaxY == query MinY
		box(20, -10, 30, 0),   // tile MinY == query MaxY
		box(30, 10, 40, 20),   // corner
		box(10, -10, 20, 0),   // opposite corner
		box(30, 10, 30, 10),   // the corner point itself
		box(25, 5, 25, 5),     // a point inside
		box(30.5, 0, 40, 10),  // just past: no match
		box(0, 0, 19.5, 10),   // just short: no match
		box(20, 10.5, 30, 20), // just above: no match
	} {
		m.check(t, q)
	}
}

// TestGridIndexWorldBox: a query covering 4e12 cells costs what the
// occupied cells cost, and an object that wide is one list entry, not one
// per cell. Both killed the process ("fatal error: runtime: out of
// memory") while every covered cell was enumerated.
func TestGridIndexWorldBox(t *testing.T) {
	world := NewBox(-1e7, -1e7, 1e7, 1e7)
	m := newGridModel(10)
	for i := range 100 {
		x := float64(i) * 20
		m.put(uint64(i+1), box(x, 0, x+10, 10))
	}
	m.check(t, world)
	if got := m.g.Search(world); len(got) != 100 {
		t.Fatalf("world-box search found %d of 100 tiles", len(got))
	}
	m.check(t, Box{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)})
	m.check(t, NewBox(-1e300, -1e300, 1e300, 1e300))

	m.put(1000, world)
	if m.g.cells.Len() != 100 || len(m.g.wide) != 1 {
		t.Fatalf("world-box object: %d cells, %d wide entries; want 100 and 1", m.g.cells.Len(), len(m.g.wide))
	}
	point := box(55, 5, 55, 5) // in no tile
	if got := m.g.Search(point); !reflect.DeepEqual(got, []uint64{1000}) {
		t.Errorf("point search = %v, want the world-box object alone", got)
	}
	if got := m.g.Search(box(40, 0, 41, 1)); !reflect.DeepEqual(got, []uint64{3, 1000}) {
		t.Errorf("tile search = %v, want [3 1000]", got)
	}
	m.check(t, world)
	m.del(1000)
	if len(m.g.wide) != 0 {
		t.Errorf("wide list after delete: %v", m.g.wide)
	}
	m.check(t, point)
}

// randGridBox draws from the shapes the index treats differently at cell
// size 10: cell-aligned tiles, boxes on and off the lattice, negative
// coordinates, points and lines (on cell boundaries too), and boxes far
// wider than wideCells cells, up to the whole plane.
func randGridBox(r *rand.Rand) Box {
	lattice := func() float64 { return float64(r.Intn(13)-6) * 10 }
	anywhere := func() float64 {
		if r.Intn(2) == 0 {
			return lattice()
		}
		return r.Float64()*120 - 60
	}
	switch r.Intn(8) {
	case 0, 1: // aligned tile
		x, y := lattice(), lattice()
		return Box{MinX: x, MinY: y, MaxX: x + 10, MaxY: y + 10}
	case 2: // point
		x, y := anywhere(), anywhere()
		return Box{MinX: x, MinY: y, MaxX: x, MaxY: y}
	case 3: // horizontal or vertical line
		b := NewBox(anywhere(), anywhere(), anywhere(), anywhere())
		if r.Intn(2) == 0 {
			b.MaxY = b.MinY
		} else {
			b.MaxX = b.MinX
		}
		return b
	case 4: // oversize
		switch r.Intn(4) {
		case 0:
			return NewBox(-1e7, -1e7, 1e7, 1e7)
		case 1:
			return Box{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
		case 2: // a strip: wide one way, thin the other
			y := anywhere()
			return Box{MinX: -1e9, MinY: y, MaxX: 1e9, MaxY: y + 1}
		default: // a little over wideCells cells
			x, y := lattice(), lattice()
			return Box{MinX: x, MinY: y, MaxX: x + 90, MaxY: y + 90}
		}
	default:
		return NewBox(anywhere(), anywhere(), anywhere(), anywhere())
	}
}

// TestGridIndexProperty: after every step of a random insert / replace /
// delete sequence, Search equals the brute-force Intersects filter —
// ascending, no duplicates — for random queries and for queries that
// touch a stored box exactly at an edge.
func TestGridIndexProperty(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := newGridModel(10)
		for step := 0; step < 150; step++ {
			id := uint64(1 + r.Intn(40)) // not ascending: lists take inserts in the middle
			if _, ok := m.boxes[id]; ok && r.Intn(2) == 0 {
				m.del(id)
			} else {
				m.put(id, randGridBox(r))
			}
			for range 4 {
				m.check(t, randGridBox(r))
			}
			if ids := slices.Sorted(maps.Keys(m.boxes)); len(ids) > 0 {
				// Object MaxX == query MinX, and the other three sides.
				b := m.boxes[ids[r.Intn(len(ids))]]
				m.check(t, Box{MinX: b.MaxX, MinY: b.MinY, MaxX: b.MaxX + 7, MaxY: b.MaxY})
				m.check(t, Box{MinX: b.MinX - 7, MinY: b.MinY, MaxX: b.MinX, MaxY: b.MaxY})
				m.check(t, Box{MinX: b.MinX, MinY: b.MaxY, MaxX: b.MaxX, MaxY: b.MaxY + 7})
				m.check(t, Box{MinX: b.MinX, MinY: b.MinY - 7, MaxX: b.MaxX, MaxY: b.MinY})
			}
		}
		for id := range m.boxes {
			m.del(id)
		}
		if m.g.cells.Len() != 0 || len(m.g.wide) != 0 {
			t.Fatalf("seed %d: emptied index keeps %d cells, %d wide entries", seed, m.g.cells.Len(), len(m.g.wide))
		}
	}
}

// TestGridIndexInsertAllocs: inserting a cell-aligned tile allocates at
// most, amortised, its share of a new block of postings — no key slice,
// no neighbouring cells, no per-id entry.
func TestGridIndexInsertAllocs(t *testing.T) {
	g := NewGridIndex(10, func(uint64) Box { return Box{} })
	id := uint64(0)
	perTile := testing.AllocsPerRun(2000, func() {
		id++
		x := float64(id) * 20
		g.Insert(id, Box{MinX: x, MinY: 0, MaxX: x + 10, MaxY: 10})
	})
	if perTile > 1 {
		t.Errorf("aligned tile into a cell of its own: %v allocations per insert, want at most 1", perTile)
	}
	shared := testing.AllocsPerRun(2000, func() {
		id++
		g.Insert(id, Box{MinX: 0, MinY: 100, MaxX: 10, MaxY: 110})
	})
	if shared >= 1 {
		t.Errorf("aligned tile into a shared cell: %v allocations per insert, want list growth only", shared)
	}
}

func TestIntervalIndexBasics(t *testing.T) {
	var x IntervalIndex
	x.Insert(1, NewInterval(Date(1986, 1, 1), Date(1986, 2, 1)))
	x.Insert(2, NewInterval(Date(1986, 3, 1), Date(1986, 4, 1)))
	x.Insert(3, NewInterval(Date(1986, 1, 15), Date(1986, 3, 15)))

	got := x.Search(NewInterval(Date(1986, 1, 20), Date(1986, 1, 25)))
	if !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Errorf("Search = %v, want [1 3]", got)
	}
	if got := x.Search(Instant(Date(1986, 3, 10))); !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Errorf("stab = %v, want [2 3]", got)
	}
	if got := x.Search(NewInterval(Date(1990, 1, 1), Date(1991, 1, 1))); len(got) != 0 {
		t.Errorf("future search = %v", got)
	}
	if got := x.Search(EmptyInterval()); got != nil {
		t.Errorf("empty search = %v", got)
	}
}

func TestIntervalIndexDeleteReplace(t *testing.T) {
	var x IntervalIndex
	first := NewInterval(Date(1986, 1, 1), Date(1986, 2, 1))
	x.Insert(1, first)
	x.Delete(1, first)
	if len(x.byStart) != 0 {
		t.Error("delete failed")
	}
	x.Delete(9, first) // no-op
	x.Insert(1, first)
	x.Delete(1, first)
	x.Insert(1, NewInterval(Date(1987, 1, 1), Date(1987, 2, 1)))
	if got := x.Search(Instant(Date(1986, 1, 15))); len(got) != 0 {
		t.Errorf("stale interval matched: %v", got)
	}
	if got := x.Search(Instant(Date(1987, 1, 15))); !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("replacement not found: %v", got)
	}
}

// TestIntervalIndexProperty: the interval twin of TestGridIndexProperty.
// Starts are drawn from a handful of values so that equal starts — where
// the id breaks the tie in the sort order — are the rule, and the entries
// must stay sorted through inserts out of time order.
func TestIntervalIndexProperty(t *testing.T) {
	randIv := func(r *rand.Rand) Interval {
		switch r.Intn(6) {
		case 0:
			return EmptyInterval()
		case 1:
			return Instant(AbsTime(r.Intn(8) * 100))
		}
		start := AbsTime(r.Intn(8) * 100)
		return Interval{Start: start, End: start + AbsTime(r.Intn(500))}
	}
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		var x IntervalIndex
		ivs := make(map[uint64]Interval)
		for step := 0; step < 200; step++ {
			id := uint64(1 + r.Intn(40))
			old, ok := ivs[id]
			if ok {
				x.Delete(id, old)
				delete(ivs, id)
			}
			if !ok || r.Intn(2) == 0 {
				ivs[id] = randIv(r)
				x.Insert(id, ivs[id])
			}
			if !slices.IsSortedFunc(x.byStart, intervalEntry.compare) || len(x.byStart) != len(ivs) {
				t.Fatalf("seed %d step %d: %d entries for %d ids, sorted %v", seed, step,
					len(x.byStart), len(ivs), slices.IsSortedFunc(x.byStart, intervalEntry.compare))
			}
			for range 4 {
				q := randIv(r)
				var want []uint64
				for id, iv := range ivs {
					if iv.Intersects(q) {
						want = append(want, id)
					}
				}
				slices.Sort(want)
				if got := x.Search(q); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Search(%v) = %v, brute force says %v\n%v", seed, step, q, got, want, ivs)
				}
			}
		}
	}
}
