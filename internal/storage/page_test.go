package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// pageInsert puts rec on p as a commit does: Heap.plan's choice of slot
// and its room arithmetic, then apply's insertAt. A room the arithmetic
// gets wrong is an error.
func pageInsert(p *page, rec []byte) (int, error) {
	if err := checkRecord(rec); err != nil {
		return 0, err
	}
	hint := pageHint{room: p.room()}
	if hint.room < len(rec) {
		return 0, ErrPageFull
	}
	slot := hint.take(p, len(rec))
	if err := p.insertAt(slot, rec); err != nil {
		return 0, err
	}
	if hint.room != p.room() {
		return 0, fmt.Errorf("planned room %d, the page has %d", hint.room, p.room())
	}
	return slot, nil
}

// firstDead returns p's first dead slot, or -1.
func firstDead(p *page) int {
	for i := 0; i < p.nslots(); i++ {
		if p.dead(i) {
			return i
		}
	}
	return -1
}

func TestPageInsertGetDelete(t *testing.T) {
	p := newPage()
	s1, err := pageInsert(p, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pageInsert(p, []byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("slots must differ")
	}
	r1, err := p.get(s1)
	if err != nil || string(r1) != "hello" {
		t.Fatalf("get s1 = %q, %v", r1, err)
	}
	if err := p.del(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.get(s1); !errors.Is(err, ErrRecDeleted) {
		t.Errorf("deleted get err = %v", err)
	}
	if err := p.del(s1); !errors.Is(err, ErrRecDeleted) {
		t.Errorf("double delete err = %v", err)
	}
	if _, err := p.get(99); !errors.Is(err, ErrBadSlot) {
		t.Errorf("bad slot err = %v", err)
	}
	// Slot of deleted record is reused.
	s3, err := pageInsert(p, []byte("again"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("dead slot not reused: %d vs %d", s3, s1)
	}
}

func TestPageRejections(t *testing.T) {
	p := newPage()
	if _, err := pageInsert(p, nil); err == nil {
		t.Error("empty record must fail")
	}
	if _, err := pageInsert(p, make([]byte, MaxRecordLen+1)); !errors.Is(err, ErrTooLarge) {
		t.Error("oversized record must fail")
	}
	// Exactly max fits.
	if _, err := pageInsert(p, make([]byte, MaxRecordLen)); err != nil {
		t.Errorf("max record should fit: %v", err)
	}
	// Nothing else fits now.
	if _, err := pageInsert(p, []byte("x")); !errors.Is(err, ErrPageFull) {
		t.Error("full page must reject")
	}
}

func TestPageCompactionReclaimsSpace(t *testing.T) {
	p := newPage()
	var slots []int
	rec := make([]byte, 512)
	for {
		s, err := pageInsert(p, rec)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 10 {
		t.Fatalf("only %d records fit", len(slots))
	}
	// Delete every other record; the free space is fragmented.
	for i := 0; i < len(slots); i += 2 {
		if err := p.del(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A larger record should now fit thanks to compaction.
	big := make([]byte, 1500)
	for i := range big {
		big[i] = byte(i)
	}
	s, err := pageInsert(p, big)
	if err != nil {
		t.Fatalf("insert after fragmentation: %v", err)
	}
	got, err := p.get(s)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatal("compaction corrupted record")
	}
	// Survivors unharmed.
	for i := 1; i < len(slots); i += 2 {
		if r, err := p.get(slots[i]); err != nil || len(r) != 512 {
			t.Fatalf("survivor %d damaged: %v", slots[i], err)
		}
	}
}

func TestPageChecksum(t *testing.T) {
	p := newPage()
	pageInsert(p, []byte("payload"))
	p.seal()
	if err := p.verify(); err != nil {
		t.Fatalf("sealed page should verify: %v", err)
	}
	p.buf[PageSize-1] ^= 0xFF
	if err := p.verify(); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("corrupted page err = %v", err)
	}
	p.buf[PageSize-1] ^= 0xFF
	p.buf[0] = 0 // break magic
	if err := p.verify(); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("bad magic err = %v", err)
	}
}

func TestPageInsertAtIdempotent(t *testing.T) {
	p := newPage()
	rec := []byte("replayed")
	if err := p.insertAt(3, rec); err != nil {
		t.Fatal(err)
	}
	if p.nslots() != 4 {
		t.Errorf("nslots = %d, want 4", p.nslots())
	}
	// Identical replay is a no-op.
	if err := p.insertAt(3, rec); err != nil {
		t.Errorf("idempotent replay failed: %v", err)
	}
	// Conflicting replay fails.
	if err := p.insertAt(3, []byte("different")); err == nil {
		t.Error("conflicting replay must fail")
	}
	// Intervening slots are dead and hold no bytes.
	for i := 0; i < 3; i++ {
		if _, err := p.get(i); !errors.Is(err, ErrRecDeleted) {
			t.Errorf("intervening slot %d should be dead: %v", i, err)
		}
		if off, end := p.span(i); off != end {
			t.Errorf("intervening slot %d holds [%d, %d)", i, off, end)
		}
	}
	got, err := p.get(3)
	if err != nil || !bytes.Equal(got, rec) {
		t.Fatal("insertAt record wrong")
	}
}

// checkPage holds a page to its layout and to model, the live records by
// slot: offsets non-increasing in slot order, freeEnd the last offset,
// live bytes and holes filling the record area, room what a
// brute-force search finds its first free slot takes, and every
// slot live exactly when the model has it, with the model's bytes.
func checkPage(p *page, model map[int][]byte) error {
	prev, live := PageSize, 0
	for i := 0; i < p.nslots(); i++ {
		off, end := p.span(i)
		if end != prev || off > end {
			return fmt.Errorf("slot %d spans [%d, %d) below %d", i, off, end, prev)
		}
		prev = off
		want, ok := model[i]
		if got, err := p.get(i); ok && (err != nil || !bytes.Equal(got, want)) || !ok && !errors.Is(err, ErrRecDeleted) {
			return fmt.Errorf("slot %d holds %q, %v; want %q (live %v)", i, got, err, want, ok)
		}
		if ok {
			live += end - off
		}
	}
	if p.freeEnd() != prev {
		return fmt.Errorf("freeEnd %d, last offset %d", p.freeEnd(), prev)
	}
	if live+p.holes() != PageSize-p.freeEnd() {
		return fmt.Errorf("%d live bytes and %d in holes, %d below freeEnd", live, p.holes(), PageSize-p.freeEnd())
	}
	for s := range model {
		if s >= p.nslots() {
			return fmt.Errorf("model slot %d past the %d slots", s, p.nslots())
		}
	}
	fits := func(n int) bool {
		q := *p
		slot := firstDead(&q)
		if slot < 0 {
			slot = q.nslots()
		}
		return q.place(slot, make([]byte, n)) == nil
	}
	longest := sort.Search(MaxRecordLen, func(n int) bool { return !fits(n + 1) })
	if room := p.room(); longest > 0 && room != longest || longest == 0 && room > 0 {
		return fmt.Errorf("room %d, insert takes %d", room, longest)
	}
	return nil
}

// TestPagePropertyRandomOps cross-checks the page against a map model
// under random insert, insertAt, delete and compact workloads, checking
// the whole page after every op. A reusing insert or insertAt makes a
// dead slot's hole longer or shorter; the run must see both.
func TestPagePropertyRandomOps(t *testing.T) {
	var longer, shorter int
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := newPage()
		model := make(map[int][]byte)
		record := func() []byte {
			rec := make([]byte, 1+r.Intn(200))
			r.Read(rec)
			return rec
		}
		reuse := func(slot int, rec []byte) {
			if slot < p.nslots() {
				if off, end := p.span(slot); len(rec) > end-off {
					longer++
				} else if len(rec) < end-off {
					shorter++
				}
			}
		}
		for op := 0; op < 300; op++ {
			switch k := r.Intn(10); {
			case k < 5:
				rec := record()
				dead := firstDead(p)
				if dead >= 0 {
					reuse(dead, rec)
				}
				s, err := pageInsert(p, rec)
				if err != nil {
					if errors.Is(err, ErrPageFull) && p.room() < len(rec) {
						continue
					}
					t.Logf("insert %d bytes: %v", len(rec), err)
					return false
				}
				if _, live := model[s]; live || dead >= 0 && s != dead {
					t.Logf("insert took slot %d, first dead slot %d", s, dead)
					return false
				}
				model[s] = rec
			case k < 7:
				slot := r.Intn(p.nslots() + 4)
				if want, live := model[slot]; live {
					if p.insertAt(slot, want) != nil || p.insertAt(slot, append(want, 0)) == nil {
						t.Logf("replay over live slot %d: identical refused or conflict taken", slot)
						return false
					}
					break
				}
				rec := record()
				reuse(slot, rec)
				if err := p.insertAt(slot, rec); err != nil {
					if errors.Is(err, ErrPageFull) {
						continue
					}
					t.Logf("insertAt %d: %v", slot, err)
					return false
				}
				model[slot] = rec
			case k < 9:
				if len(model) == 0 {
					continue
				}
				victim := r.Intn(p.nslots())
				_, live := model[victim]
				if err := p.del(victim); live != (err == nil) {
					t.Logf("delete slot %d (live %v): %v", victim, live, err)
					return false
				}
				delete(model, victim)
			default:
				p.compact()
				if p.holes() != 0 {
					t.Logf("compact left %d bytes in holes", p.holes())
					return false
				}
			}
			if err := checkPage(p, model); err != nil {
				t.Logf("op %d: %v", op, err)
				return false
			}
		}
		// Seal/verify round trip.
		p.seal()
		return p.verify() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if longer == 0 || shorter == 0 {
		t.Errorf("%d reuses by a longer record, %d by a shorter one: the draw covers one side only", longer, shorter)
	}
}
