package sorted

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// kv is a test row: ordered by k alone, so that a Put of an existing key
// with another v is a replacement.
type kv struct {
	k uint16
	v uint32
}

func byKey(a, b kv) int { return cmp.Compare(a.k, b.k) }

// model is a run beside the sorted slice it must always equal.
type model struct {
	t   testing.TB
	r   *Run[kv]
	ref []kv
}

// newModel lowers the block size to per rows, so that a few hundred
// operations split, empty and merge blocks.
func newModel(t testing.TB, per int) *model {
	r := New(byKey)
	r.per = per
	return &model{t: t, r: r}
}

func (m *model) find(k uint16) (int, bool) {
	return slices.BinarySearchFunc(m.ref, kv{k: k}, byKey)
}

func (m *model) put(v kv) {
	m.t.Helper()
	i, found := m.find(v.k)
	if found {
		m.ref[i] = v
	} else {
		m.ref = slices.Insert(m.ref, i, v)
	}
	if isNew := m.r.Put(v); isNew == found {
		m.t.Fatalf("Put(%v) reported new = %v, the reference says %v", v, isNew, !found)
	}
}

func (m *model) del(k uint16) {
	m.t.Helper()
	i, found := m.find(k)
	if found {
		m.ref = slices.Delete(m.ref, i, i+1)
	}
	if got := m.r.Delete(kv{k: k}); got != found {
		m.t.Fatalf("Delete(%d) = %v, the reference says %v", k, got, found)
	}
}

func (m *model) get(k uint16) {
	m.t.Helper()
	i, found := m.find(k)
	got, ok := m.r.Get(kv{k: k})
	if ok != found || (found && got != m.ref[i]) {
		m.t.Fatalf("Get(%d) = %v, %v; the reference says found = %v", k, got, ok, found)
	}
	if p := m.r.Ptr(kv{k: k}); (p != nil) != found || (p != nil && *p != got) {
		m.t.Fatalf("Ptr(%d) = %v, Get = %v, %v", k, p, got, ok)
	}
}

// ascend compares at most limit values from k on.
func (m *model) ascend(k uint16, limit int) {
	m.t.Helper()
	i, _ := m.find(k)
	want := m.ref[i:min(len(m.ref), i+limit)]
	var got []kv
	for v := range m.r.Ascend(kv{k: k}) {
		if len(got) == limit {
			break
		}
		got = append(got, v)
	}
	if !slices.Equal(got, want) {
		m.t.Fatalf("Ascend(%d) first %d = %v, the reference says %v", k, limit, got, want)
	}
}

// check verifies the whole run and the block invariants: no empty block,
// none past its capacity or reallocated, every one below the next.
func (m *model) check() {
	m.t.Helper()
	if got := slices.Collect(m.r.Ascend(kv{})); !slices.Equal(got, m.ref) {
		m.t.Fatalf("run holds %v, the reference %v", got, m.ref)
	}
	if m.r.Len() != len(m.ref) {
		m.t.Fatalf("Len = %d, the reference holds %d", m.r.Len(), len(m.ref))
	}
	for b, blk := range m.r.blocks {
		if len(blk) == 0 || len(blk) > m.r.per || cap(blk) != m.r.per {
			m.t.Fatalf("block %d: len %d cap %d, per %d", b, len(blk), cap(blk), m.r.per)
		}
		if b > 0 {
			if prev := m.r.blocks[b-1]; byKey(prev[len(prev)-1], blk[0]) >= 0 {
				m.t.Fatalf("block %d starts at %v, not above %v", b, blk[0], prev[len(prev)-1])
			}
		}
	}
}

// TestRunAgainstReference: random Put/Delete/Get/Ascend against a sorted
// slice, with keys drawn from ranges that make inserts land in order, out
// of order and on existing keys, and with block sizes that force splits,
// emptied blocks and merges.
func TestRunAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		per := []int{4, 5, 16}[seed%3]
		m := newModel(t, per)
		span := []int{8, 64, 1000}[r.Intn(3)]
		next := uint16(0)
		for step := 0; step < 1500; step++ {
			k := uint16(r.Intn(span))
			switch op := r.Intn(10); {
			case op < 2: // ascending: an append, or between blocks
				next += uint16(1 + r.Intn(3))
				m.put(kv{k: next, v: uint32(step)})
			case op < 5:
				m.put(kv{k: k, v: uint32(step)})
			case op < 8:
				m.del(k)
			case op < 9:
				m.get(k)
			default:
				m.ascend(k, r.Intn(3*per))
			}
			m.check()
		}
		for len(m.ref) > 0 {
			m.del(m.ref[r.Intn(len(m.ref))].k)
			m.check()
		}
		if len(m.r.blocks) != 0 {
			t.Fatalf("seed %d: emptied run keeps %d blocks", seed, len(m.r.blocks))
		}
	}
}

// TestRunEdges pins the cases the random walk reaches only by chance.
func TestRunEdges(t *testing.T) {
	m := newModel(t, 4)
	for k := uint16(10); k <= 80; k += 10 { // two full blocks, by appends
		m.put(kv{k: k})
	}
	m.check()
	if len(m.r.blocks) != 2 {
		t.Fatalf("8 appends at 4 a block fill %d blocks, want 2", len(m.r.blocks))
	}
	m.put(kv{k: 25}) // mid-block into a full block: a split
	m.put(kv{k: 45}) // between two full blocks: a block of its own
	m.put(kv{k: 5})  // before the first full block
	m.put(kv{k: 25, v: 1})
	m.check()
	for _, k := range []uint16{50, 60, 70, 80} { // empty the last block
		m.del(k)
		m.check()
	}
	m.del(999) // absent
	for k := range uint16(100) {
		m.get(k)
		m.ascend(k, 100)
	}
	m.check()
}

func TestNewRefusesPointers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted a row type holding a string")
		}
	}()
	New(func(a, b struct{ s string }) int { return cmp.Compare(a.s, b.s) })
}

// FuzzRun runs an arbitrary operation sequence against the reference:
// each three bytes are an operation, a key and a value.
func FuzzRun(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 1, 3, 0, 2, 3, 0})
	f.Add([]byte{0, 9, 0, 0, 8, 0, 0, 7, 0, 0, 6, 0, 0, 5, 0, 0, 4, 0, 1, 9, 0, 1, 8, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newModel(t, 4)
		for ; len(ops) >= 3; ops = ops[3:] {
			k := uint16(ops[1] & 0x3f)
			switch ops[0] % 4 {
			case 0:
				m.put(kv{k: k, v: uint32(ops[2])})
			case 1:
				m.del(k)
			case 2:
				m.get(k)
			case 3:
				m.ascend(k, int(ops[2]%16))
			}
			m.check()
		}
	})
}
