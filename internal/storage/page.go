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

// Page header layout (little endian):
//
//	offset 0: magic      uint16
//	offset 2: nslots     uint16
//	offset 4: freeEnd    uint16  (start of the lowest record)
//	offset 6: crc32      uint32  (over bytes [10, PageSize), i.e. everything after the checksum)
//	offset 10: slot array, 4 bytes per slot: recOff uint16, recLen uint16
//
// Records grow downward from the end of the page; the slot array grows
// upward. A slot with recOff == 0 is dead (deleted).
const (
	pageMagic  = 0x6AEA
	pageHdrLen = 10
	slotSize   = 4
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

func (p *page) slot(i int) (off, length int) {
	base := pageHdrLen + i*slotSize
	return int(binary.LittleEndian.Uint16(p.buf[base:])), int(binary.LittleEndian.Uint16(p.buf[base+2:]))
}

func (p *page) setSlot(i, off, length int) {
	base := pageHdrLen + i*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// freeSpace returns contiguous free bytes between the slot array and the
// record heap.
func (p *page) freeSpace() int {
	return p.freeEnd() - (pageHdrLen + p.nslots()*slotSize)
}

// deadSpace returns bytes held by deleted records (reclaimable by compact).
func (p *page) deadSpace() int {
	used := 0
	for i := 0; i < p.nslots(); i++ {
		off, length := p.slot(i)
		if off != 0 {
			used += length
		}
	}
	return PageSize - p.freeEnd() - used
}

// room returns the longest record insert accepts — possibly after
// compaction, reusing a dead slot when there is one — in one pass over
// the slot array. It is negative when not even a slot fits.
func (p *page) room() int {
	used, dead := 0, false
	for i := 0; i < p.nslots(); i++ {
		if off, length := p.slot(i); off != 0 {
			used += length
		} else {
			dead = true
		}
	}
	room := PageSize - used - (pageHdrLen + p.nslots()*slotSize)
	if !dead {
		room -= slotSize
	}
	return room
}

func (p *page) firstDeadSlot() int {
	for i := 0; i < p.nslots(); i++ {
		if off, _ := p.slot(i); off == 0 {
			return i
		}
	}
	return -1
}

// insert places rec into the page, compacting first if fragmentation
// requires it, and returns the slot number.
func (p *page) insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(rec))
	}
	if len(rec) == 0 {
		return 0, errors.New("storage: empty record")
	}
	slot := p.firstDeadSlot()
	need := len(rec)
	if slot < 0 {
		need += slotSize
	}
	if p.freeSpace() < need {
		if p.freeSpace()+p.deadSpace() < need {
			return 0, ErrPageFull
		}
		p.compact()
		if p.freeSpace() < need {
			return 0, ErrPageFull
		}
	}
	if slot < 0 {
		slot = p.nslots()
		p.setNslots(slot + 1)
	}
	off := p.freeEnd() - len(rec)
	copy(p.buf[off:], rec)
	p.setFreeEnd(off)
	p.setSlot(slot, off, len(rec))
	return slot, nil
}

// insertAt places rec into a specific slot, used by WAL replay. Existing
// identical records are accepted silently (idempotent replay); conflicting
// content is an error.
func (p *page) insertAt(slot int, rec []byte) error {
	if len(rec) > MaxRecordLen {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(rec))
	}
	if slot < p.nslots() {
		if off, length := p.slot(slot); off != 0 {
			if length == len(rec) && string(p.buf[off:off+length]) == string(rec) {
				return nil // already applied
			}
			return fmt.Errorf("storage: replay conflict at slot %d", slot)
		}
	}
	// Extend the slot array through the target slot.
	for p.nslots() <= slot {
		if p.freeSpace() < slotSize {
			return ErrPageFull
		}
		n := p.nslots()
		p.setSlot(n, 0, 0)
		p.setNslots(n + 1)
	}
	if p.freeSpace() < len(rec) {
		if p.freeSpace()+p.deadSpace() < len(rec) {
			return ErrPageFull
		}
		p.compact()
		if p.freeSpace() < len(rec) {
			return ErrPageFull
		}
	}
	off := p.freeEnd() - len(rec)
	copy(p.buf[off:], rec)
	p.setFreeEnd(off)
	p.setSlot(slot, off, len(rec))
	return nil
}

// get returns the record bytes in slot i (a view into the page; callers
// copy before retaining).
func (p *page) get(i int) ([]byte, error) {
	if i < 0 || i >= p.nslots() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.nslots())
	}
	off, length := p.slot(i)
	if off == 0 {
		return nil, ErrRecDeleted
	}
	return p.buf[off : off+length], nil
}

// del marks slot i dead. The record space is reclaimed by a later compact.
func (p *page) del(i int) error {
	if i < 0 || i >= p.nslots() {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.nslots())
	}
	off, _ := p.slot(i)
	if off == 0 {
		return ErrRecDeleted
	}
	p.setSlot(i, 0, 0)
	return nil
}

// compact rewrites live records contiguously at the end of the page.
func (p *page) compact() {
	type live struct {
		slot, off, length int
	}
	var lives []live
	for i := 0; i < p.nslots(); i++ {
		off, length := p.slot(i)
		if off != 0 {
			lives = append(lives, live{i, off, length})
		}
	}
	var scratch [PageSize]byte
	end := PageSize
	for _, l := range lives {
		end -= l.length
		copy(scratch[end:], p.buf[l.off:l.off+l.length])
	}
	copy(p.buf[end:], scratch[end:PageSize])
	// Rewrite slot offsets in the same order the records were laid out.
	off := PageSize
	for _, l := range lives {
		off -= l.length
		p.setSlot(l.slot, off, l.length)
	}
	p.setFreeEnd(off)
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
