// Package storage is the embedded storage engine substrate beneath the
// Gaea kernel, substituting for the Postgres backend of the paper's
// prototype. It provides durable record storage
// (slotted-page heap files behind a buffer pool), a redo write-ahead log
// with crash recovery, persistent sequences, and a file-backed blob store
// for large image payloads — the same contract the metadata layers would
// get from Postgres.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PageSize is the fixed page size of heap files.
const PageSize = 8192

// The page layout — header, slot array, records in slot order — is
// README's "On-disk format 6", *Page and slot*. A dead slot's bytes are
// a hole that compact squeezes out or a reusing insert resizes.
const (
	pageMagic  = 0x6AEB
	pageHdrLen = 10
	slotSize   = 2

	slotDead = 0x8000
	slotOff  = 0x3FFF
)

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("storage: page full")
	ErrBadSlot     = errors.New("storage: bad slot")
	ErrRecDeleted  = errors.New("storage: record deleted")
	ErrCorruptPage = errors.New("storage: page checksum mismatch")
	ErrTooLarge    = errors.New("storage: record exceeds page capacity")
)

// MaxRecordLen is the largest record a page can hold (one slot, full free
// space).
const MaxRecordLen = PageSize - pageHdrLen - slotSize

type page struct {
	buf [PageSize]byte
}

func newPage() *page {
	p := &page{}
	binary.LittleEndian.PutUint16(p.buf[0:], pageMagic)
	binary.LittleEndian.PutUint16(p.buf[2:], 0)
	binary.LittleEndian.PutUint16(p.buf[4:], PageSize&0xFFFF) // stored mod 2^16; PageSize==8192 fits
	return p
}

func (p *page) nslots() int  { return int(binary.LittleEndian.Uint16(p.buf[2:])) }
func (p *page) freeEnd() int { return int(binary.LittleEndian.Uint16(p.buf[4:])) }

func (p *page) setNslots(n int)  { binary.LittleEndian.PutUint16(p.buf[2:], uint16(n)) }
func (p *page) setFreeEnd(v int) { binary.LittleEndian.PutUint16(p.buf[4:], uint16(v)) }

func (p *page) word(i int) int {
	return int(binary.LittleEndian.Uint16(p.buf[pageHdrLen+i*slotSize:]))
}

func (p *page) setWord(i, w int) {
	binary.LittleEndian.PutUint16(p.buf[pageHdrLen+i*slotSize:], uint16(w))
}

// span returns where slot i's bytes start and end.
func (p *page) span(i int) (off, end int) {
	end = PageSize
	if i > 0 {
		end = p.word(i-1) & slotOff
	}
	return p.word(i) & slotOff, end
}

func (p *page) dead(i int) bool { return p.word(i)&slotDead != 0 }

// freeSpace returns contiguous free bytes between the slot array and the
// record heap.
func (p *page) freeSpace() int {
	return p.freeEnd() - (pageHdrLen + p.nslots()*slotSize)
}

// room returns the longest record the page takes — possibly after
// compaction, in its first dead slot when it has one, else in a new
// one — in one pass over the slot array. It is negative when not even
// a slot fits.
func (p *page) room() int {
	used, dead := 0, false
	for i := 0; i < p.nslots(); i++ {
		if off, end := p.span(i); p.dead(i) {
			dead = true
		} else {
			used += end - off
		}
	}
	room := PageSize - used - (pageHdrLen + p.nslots()*slotSize)
	if !dead {
		room -= slotSize
	}
	return room
}

// insertAt places rec into a specific slot: the one Heap.plan chose, or
// the one a replayed group names. Existing identical records are
// accepted silently (idempotent replay); conflicting content is an
// error. The slots it adds before the target are dead and hold no bytes.
func (p *page) insertAt(slot int, rec []byte) error {
	if len(rec) > MaxRecordLen {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(rec))
	}
	if slot < p.nslots() && !p.dead(slot) {
		if off, end := p.span(slot); string(p.buf[off:end]) == string(rec) {
			return nil // already applied
		}
		return fmt.Errorf("storage: replay conflict at slot %d", slot)
	}
	return p.place(slot, rec)
}

// place writes rec into slot, a dead slot or one past the last,
// appending dead zero-length slots up to it, and compacting first if
// the holes hold the room it needs.
func (p *page) place(slot int, rec []byte) error {
	n := p.nslots()
	need, hole := len(rec), 0
	if slot < n {
		off, end := p.span(slot)
		hole = end - off
		need -= hole
	} else {
		need += (slot + 1 - n) * slotSize
	}
	if p.freeSpace() < need {
		if p.freeSpace()+p.holes() < need+hole {
			return ErrPageFull
		}
		p.compact()
	}
	for fe := p.freeEnd(); n <= slot; n++ {
		p.setWord(n, slotDead|fe)
	}
	p.setNslots(n)
	off := p.resize(slot, len(rec))
	copy(p.buf[off:], rec)
	p.setWord(slot, off)
	return nil
}

// resize makes slot i's bytes size long, moving the records of the later
// slots, and their offsets, by the difference, and returns the slot's
// new offset. The caller has made the room.
func (p *page) resize(i, size int) int {
	off, end := p.span(i)
	d := size - (end - off)
	if d == 0 {
		return off
	}
	fe := p.freeEnd()
	copy(p.buf[fe-d:], p.buf[fe:off])
	for j := i + 1; j < p.nslots(); j++ {
		p.setWord(j, p.word(j)-d)
	}
	p.setWord(i, p.word(i)-d)
	p.setFreeEnd(fe - d)
	return off - d
}

// holes returns the bytes held by dead slots (reclaimable by compact).
func (p *page) holes() int {
	n := 0
	for i := 0; i < p.nslots(); i++ {
		if p.dead(i) {
			off, end := p.span(i)
			n += end - off
		}
	}
	return n
}

// get returns the record bytes in slot i (a view into the page; callers
// copy before retaining).
func (p *page) get(i int) ([]byte, error) {
	if i < 0 || i >= p.nslots() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.nslots())
	}
	if p.dead(i) {
		return nil, ErrRecDeleted
	}
	off, end := p.span(i)
	return p.buf[off:end], nil
}

// del marks slot i dead. Its bytes stay, as a hole, until a compact or
// an insert that reuses the slot.
func (p *page) del(i int) error {
	if i < 0 || i >= p.nslots() {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.nslots())
	}
	if p.dead(i) {
		return ErrRecDeleted
	}
	p.setWord(i, p.word(i)|slotDead)
	return nil
}

// compact squeezes every hole out of the page in one pass in slot
// order, in place: each live record moves up the page at most once, to
// just below the one before it, and a dead slot is left holding no
// bytes.
func (p *page) compact() {
	end, prev := PageSize, PageSize // new and old end of the slot's bytes
	for i := 0; i < p.nslots(); i++ {
		w := p.word(i)
		off := w & slotOff
		if w&slotDead == 0 {
			end -= prev - off
			copy(p.buf[end:], p.buf[off:prev])
		}
		p.setWord(i, w&slotDead|end)
		prev = off
	}
	p.setFreeEnd(end)
}

// seal computes and stores the checksum; called before writing to disk.
func (p *page) seal() {
	crc := crc32.ChecksumIEEE(p.buf[pageHdrLen:])
	binary.LittleEndian.PutUint32(p.buf[6:], crc)
}

// verify checks magic and checksum; called after reading from disk.
func (p *page) verify() error {
	if binary.LittleEndian.Uint16(p.buf[0:]) != pageMagic {
		return fmt.Errorf("%w: bad magic", ErrCorruptPage)
	}
	want := binary.LittleEndian.Uint32(p.buf[6:])
	if got := crc32.ChecksumIEEE(p.buf[pageHdrLen:]); got != want {
		return fmt.Errorf("%w: crc %08x != %08x", ErrCorruptPage, got, want)
	}
	return nil
}
