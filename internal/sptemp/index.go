package sptemp

import (
	"cmp"
	"math"
	"slices"

	"gaea/internal/sorted"
)

// GridIndex is a uniform-grid spatial index over boxes identified by
// uint64 ids (object identifiers). Gaea's query layer uses it for step 1
// of the retrieval sequence (§2.1.5): find the stored objects whose
// spatial extent intersects the query box. A uniform grid is adequate
// because scene extents in a study are similarly sized.
//
// What is kept where. The index holds postings and nothing else: one
// (cell, id) row per cell a box covers, in one sorted run ordered by cell
// column, then row, then id, so that a cell's ids are ascending and a
// column is contiguous. It keeps no box — its owner does (the object store
// keeps each object's newest extent in the row of its version chain) and
// hands the index a lookup at construction, so each object's box is held
// once in the process, not once per index. The price is that Delete must
// be told the box the id was inserted with.
//
// Cells are half-open: a box covers the cells from floor(min/cell) to
// ceil(max/cell)-1, so a tile whose max edge lies on a cell boundary
// occupies the cells it has area in and not their neighbours. Touching
// still counts as intersecting (Box.Intersects), so Search widens the
// query instead: it probes from ceil(min/cell)-1, the cell a box ending
// exactly at the query's min edge lies in.
//
// Huge boxes degrade to a scan, in both directions. A box covering more
// than wideCells cells is not enumerated cell by cell: it goes on one
// "wide" list that every search filters. A search walks the postings of
// the probed columns in order and seeks over the cells of a column that
// lie outside the probed range, so it never visits a cell nothing
// occupies. So an insert costs at most wideCells postings and a search at
// most O(occupied columns probed × log postings + wide list + matches),
// whatever the coordinates.
type GridIndex struct {
	cell  float64
	boxOf func(id uint64) Box
	cells *sorted.Run[posting]
	wide  []uint64 // ascending ids of boxes covering > wideCells cells
}

// posting says that the box of id covers cell (cx, cy).
type posting struct {
	cx, cy int64
	id     uint64
}

func comparePostings(a, b posting) int {
	if c := cmp.Compare(a.cx, b.cx); c != 0 {
		return c
	}
	if c := cmp.Compare(a.cy, b.cy); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

const (
	// wideCells bounds the postings one box may have.
	wideCells = 64
	// cellLimit clamps cell coordinates so that infinite or astronomically
	// large box edges stay exact in float64 and int64 alike. Clamping is
	// monotonic, which is all the covering argument needs.
	cellLimit = 1 << 52
)

// NewGridIndex returns a grid index with the given cell size (1 if not
// positive). boxOf must return the box an indexed id was last inserted
// with; Search calls it to filter the cells' candidates exactly.
func NewGridIndex(cell float64, boxOf func(id uint64) Box) *GridIndex {
	if !(cell > 0) {
		cell = 1
	}
	return &GridIndex{cell: cell, boxOf: boxOf, cells: sorted.New(comparePostings)}
}

func clampCell(f float64) int64 {
	switch {
	case f >= cellLimit:
		return cellLimit
	case f <= -cellLimit:
		return -cellLimit
	case f != f: // NaN: such a box intersects nothing; any fixed cell will do
		return 0
	}
	return int64(f)
}

// cellRange is an inclusive rectangle of cells.
type cellRange struct{ x0, x1, y0, y1 int64 }

// count is the number of cells in the range, as a float so that it cannot
// overflow.
func (r cellRange) count() float64 {
	return float64(r.x1-r.x0+1) * float64(r.y1-r.y0+1)
}

// covered is the cell range a stored box occupies (see the type comment).
// A degenerate box (a point or a line) occupies the cell its min edge is in.
func (g *GridIndex) covered(b Box) cellRange {
	r := cellRange{
		x0: clampCell(math.Floor(b.MinX / g.cell)),
		x1: clampCell(math.Ceil(b.MaxX/g.cell) - 1),
		y0: clampCell(math.Floor(b.MinY / g.cell)),
		y1: clampCell(math.Ceil(b.MaxY/g.cell) - 1),
	}
	r.x1, r.y1 = max(r.x0, r.x1), max(r.y0, r.y1)
	return r
}

// probed is the cell range a query must look at to see every box it
// touches.
func (g *GridIndex) probed(q Box) cellRange {
	return cellRange{
		x0: clampCell(math.Ceil(q.MinX/g.cell) - 1),
		x1: clampCell(math.Floor(q.MaxX / g.cell)),
		y0: clampCell(math.Ceil(q.MinY/g.cell) - 1),
		y1: clampCell(math.Floor(q.MaxY / g.cell)),
	}
}

// insertID adds id to an ascending list; ids mostly arrive in ascending
// order, which is an append.
func insertID(ids []uint64, id uint64) []uint64 {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	i, found := slices.BinarySearch(ids, id)
	if found {
		return ids
	}
	return slices.Insert(ids, i, id)
}

func removeID(ids []uint64, id uint64) []uint64 {
	if i, found := slices.BinarySearch(ids, id); found {
		return slices.Delete(ids, i, i+1)
	}
	return ids
}

// Insert adds id with the given box. An id already indexed must be
// deleted (with its old box) first. An empty box intersects nothing and
// is not indexed.
func (g *GridIndex) Insert(id uint64, b Box) {
	if b.IsEmpty() {
		return
	}
	r := g.covered(b)
	if r.count() > wideCells {
		g.wide = insertID(g.wide, id)
		return
	}
	for cx := r.x0; cx <= r.x1; cx++ {
		for cy := r.y0; cy <= r.y1; cy++ {
			g.cells.Put(posting{cx, cy, id})
		}
	}
}

// Delete removes id, which was inserted with box b. Deleting an absent id
// is a no-op.
func (g *GridIndex) Delete(id uint64, b Box) {
	if b.IsEmpty() {
		return
	}
	r := g.covered(b)
	if r.count() > wideCells {
		g.wide = removeID(g.wide, id)
		return
	}
	for cx := r.x0; cx <= r.x1; cx++ {
		for cy := r.y0; cy <= r.y1; cy++ {
			g.cells.Delete(posting{cx, cy, id})
		}
	}
}

// Search returns the ids whose boxes intersect q, ascending, each once.
func (g *GridIndex) Search(q Box) []uint64 {
	if q.IsEmpty() {
		return nil
	}
	r := g.probed(q)
	out := slices.Clone(g.wide)
	// Every cell's ids are ascending, so the postings walked are ascending
	// and free of duplicates as long as each id is above the one before:
	// the common case (ids grow with the cells they lie in, one cell per
	// box) needs no sort at all.
	inOrder := true
	for from, more := (posting{cx: r.x0, cy: r.y0}), true; more; {
		more = false
		for p := range g.cells.Ascend(from) {
			if p.cx > r.x1 {
				break
			}
			// Outside the probed rows: seek to where the column enters
			// them, or to the next column.
			if p.cy < r.y0 {
				from, more = posting{cx: p.cx, cy: r.y0}, true
				break
			}
			if p.cy > r.y1 {
				from, more = posting{cx: p.cx + 1, cy: r.y0}, true
				break
			}
			if len(out) > 0 && p.id <= out[len(out)-1] {
				inOrder = false
			}
			out = append(out, p.id)
		}
	}
	if !inOrder {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	hits := out[:0]
	for _, id := range out {
		if g.boxOf(id).Intersects(q) {
			hits = append(hits, id)
		}
	}
	return hits
}

// IntervalIndex indexes temporal intervals by id for overlap queries: one
// slice of (interval, id) entries kept sorted by start time, then id.
// Insert and Delete find their place by binary search (an insert in time
// order is an append); like GridIndex it keeps no per-id map, so Delete
// is told the interval the id was inserted with. Stabbing and range
// queries binary-search the start list and filter by end, which is
// O(log n + answer + k) where k is the number of intervals starting before
// the probe and ending before it too — fine for the scene-catalogue sizes
// Gaea manages. The zero value is an empty index.
type IntervalIndex struct {
	byStart []intervalEntry // sorted by iv.Start, then id
}

type intervalEntry struct {
	iv Interval
	id uint64
}

func (e intervalEntry) compare(o intervalEntry) int {
	if c := cmp.Compare(e.iv.Start, o.iv.Start); c != 0 {
		return c
	}
	return cmp.Compare(e.id, o.id)
}

// Insert adds id with the given interval. An id already indexed must be
// deleted (with its old interval) first.
func (x *IntervalIndex) Insert(id uint64, iv Interval) {
	e := intervalEntry{iv: iv, id: id}
	if n := len(x.byStart); n == 0 || x.byStart[n-1].compare(e) < 0 {
		x.byStart = append(x.byStart, e)
		return
	}
	i, found := slices.BinarySearchFunc(x.byStart, e, intervalEntry.compare)
	if found {
		x.byStart[i] = e
		return
	}
	x.byStart = slices.Insert(x.byStart, i, e)
}

// Delete removes id, which was inserted with interval iv. Deleting an
// absent id is a no-op.
func (x *IntervalIndex) Delete(id uint64, iv Interval) {
	if i, found := slices.BinarySearchFunc(x.byStart, intervalEntry{iv: iv, id: id}, intervalEntry.compare); found {
		x.byStart = slices.Delete(x.byStart, i, i+1)
	}
}

// Search returns the ids whose intervals intersect q, sorted ascending.
func (x *IntervalIndex) Search(q Interval) []uint64 {
	if q.IsEmpty() {
		return nil
	}
	// Every match has Start <= q.End; scan that prefix and filter by End.
	n, _ := slices.BinarySearchFunc(x.byStart, q.End, func(e intervalEntry, end AbsTime) int {
		if e.iv.Start > end {
			return 1
		}
		return -1
	})
	var out []uint64
	inOrder := true
	for _, e := range x.byStart[:n] {
		if e.iv.Intersects(q) {
			if len(out) > 0 && e.id < out[len(out)-1] {
				inOrder = false
			}
			out = append(out, e.id)
		}
	}
	if !inOrder {
		slices.Sort(out)
	}
	return out
}

// Nearest returns up to k ids whose intervals are closest to the instant t
// (distance 0 when the interval contains t), ordered by distance then id.
// Temporal interpolation uses it to pick bracketing observations.
func (x *IntervalIndex) Nearest(t AbsTime, k int) []uint64 {
	type cand struct {
		dist int64
		id   uint64
	}
	cands := make([]cand, 0, len(x.byStart))
	for _, e := range x.byStart {
		var d int64
		switch {
		case e.iv.Contains(t):
			d = 0
		case t < e.iv.Start:
			d = int64(e.iv.Start - t)
		default:
			d = int64(t - e.iv.End)
		}
		cands = append(cands, cand{dist: d, id: e.id})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.dist, b.dist); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	k = min(k, len(cands))
	out := make([]uint64, 0, k)
	for _, c := range cands[:k] {
		out = append(out, c.id)
	}
	return out
}
