// Package sorted keeps an ordered set of pointer-free values in fixed-size
// blocks: a two-level B+-tree whose inner level is one slice of blocks.
//
// The object store keeps one value per object (its version chain's head)
// and the grid index one per (cell, object) posting. Held in Go maps,
// every object cost a couple of heap objects the collector marks on each
// cycle, and growth rehashed the whole table. Here an insert moves the rows
// of at most one block, growth never copies more than the slice of block
// headers, and the collector scans that slice and nothing else: a block of
// values without pointers is never looked into. New refuses a row type
// with a pointer in it.
package sorted

import (
	"fmt"
	"iter"
	"reflect"
	"unsafe"
)

// blockBytes is the size of a full block: about 200 object-store rows or
// 680 grid postings.
const blockBytes = 16 << 10

// Run is an ordered set of values under cmp, which orders them by key:
// two values cmp calls equal are the same entry, and Put replaces one with
// the other. A Run is not safe for concurrent use; a pointer Ptr returns,
// and any iteration, is good only until the next Put or Delete, which may
// move the rows of the block it points into.
type Run[T any] struct {
	cmp func(a, b T) int
	// blocks are non-empty, each ascending and entirely below the next;
	// every one has capacity per and never grows past it.
	blocks [][]T
	n      int
	per    int
}

// New returns an empty run ordered by cmp. It panics when T holds a
// pointer, which would put every row back in the collector's way.
func New[T any](cmp func(a, b T) int) *Run[T] {
	if t := reflect.TypeFor[T](); !pointerFree(t) {
		panic(fmt.Sprintf("sorted: %v holds pointers", t))
	}
	var zero T
	return &Run[T]{cmp: cmp, per: max(blockBytes/int(max(unsafe.Sizeof(zero), 1)), 16)}
}

// pointerFree reports whether values of t hold no pointer the collector
// would have to follow.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	}
	return false
}

// Len returns the number of values in the run.
func (r *Run[T]) Len() int { return r.n }

// locate finds where key belongs: block b (the first whose last value is
// not below key, else the last block) and index i in it, and whether the
// value there equals key. An empty run gives 0, 0, false.
func (r *Run[T]) locate(key T) (b, i int, found bool) {
	bs := r.blocks
	if len(bs) == 0 {
		return 0, 0, false
	}
	// Values mostly arrive in ascending order: past the end is one compare.
	b = len(bs) - 1
	if last := bs[b]; r.cmp(last[len(last)-1], key) < 0 {
		return b, len(last), false
	}
	lo, hi := 0, b
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if blk := bs[m]; r.cmp(blk[len(blk)-1], key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	blk := bs[lo]
	i, j := 0, len(blk)
	for i < j {
		m := int(uint(i+j) >> 1)
		if r.cmp(blk[m], key) < 0 {
			i = m + 1
		} else {
			j = m
		}
	}
	return lo, i, i < len(blk) && r.cmp(blk[i], key) == 0
}

// Get returns the value equal to key.
func (r *Run[T]) Get(key T) (T, bool) {
	b, i, found := r.locate(key)
	if !found {
		var zero T
		return zero, false
	}
	return r.blocks[b][i], true
}

// Ptr returns the value equal to key in place, for the caller to change
// anything but its key; nil when there is none.
func (r *Run[T]) Ptr(key T) *T {
	b, i, found := r.locate(key)
	if !found {
		return nil
	}
	return &r.blocks[b][i]
}

func (r *Run[T]) newBlock() []T { return make([]T, 0, r.per) }

// Put inserts v, or replaces the value equal to it; it reports whether v
// was new.
func (r *Run[T]) Put(v T) bool {
	b, i, found := r.locate(v)
	switch {
	case found:
		r.blocks[b][i] = v
		return false
	case len(r.blocks) == 0:
		r.blocks = append(r.blocks, append(r.newBlock(), v))
	case i == 0 && b > 0 && len(r.blocks[b-1]) < r.per:
		// Between two blocks: the end of the one before moves nothing.
		r.blocks[b-1] = append(r.blocks[b-1], v)
	case len(r.blocks[b]) < r.per:
		r.blocks[b] = insertAt(r.blocks[b], i, v)
	case i == 0 || i == r.per:
		// At an edge of a full block (and the one before is full too): a
		// block of its own, which the ascending inserts after it fill.
		if i != 0 {
			b++
		}
		r.blocks = insertAt(r.blocks, b, append(r.newBlock(), v))
	default:
		// Split the full block in halves and insert into the one i is in.
		blk := r.blocks[b]
		half := len(blk) / 2
		right := append(r.newBlock(), blk[half:]...)
		r.blocks[b] = blk[:half]
		r.blocks = insertAt(r.blocks, b+1, right)
		if i > half {
			b, i = b+1, i-half
		}
		r.blocks[b] = insertAt(r.blocks[b], i, v)
	}
	r.n++
	return true
}

// Delete removes the value equal to key; it reports whether there was one.
// A block left empty goes, and one left under a quarter full joins a
// neighbour when the two fit in half a block, so that deletes cannot
// leave the run as a long list of nearly empty blocks.
func (r *Run[T]) Delete(key T) bool {
	b, i, found := r.locate(key)
	if !found {
		return false
	}
	r.n--
	blk := r.blocks[b]
	copy(blk[i:], blk[i+1:])
	blk = blk[:len(blk)-1]
	r.blocks[b] = blk
	switch {
	case len(blk) == 0:
		r.removeBlock(b)
	case len(blk) >= r.per/4:
	case b+1 < len(r.blocks) && len(blk)+len(r.blocks[b+1]) <= r.per/2:
		r.blocks[b] = append(blk, r.blocks[b+1]...)
		r.removeBlock(b + 1)
	case b > 0 && len(blk)+len(r.blocks[b-1]) <= r.per/2:
		r.blocks[b-1] = append(r.blocks[b-1], blk...)
		r.removeBlock(b)
	}
	return true
}

func (r *Run[T]) removeBlock(b int) {
	copy(r.blocks[b:], r.blocks[b+1:])
	r.blocks[len(r.blocks)-1] = nil
	r.blocks = r.blocks[:len(r.blocks)-1]
}

// Ascend yields the values not below from, in order.
func (r *Run[T]) Ascend(from T) iter.Seq[T] {
	return func(yield func(T) bool) {
		b, i, _ := r.locate(from)
		for ; b < len(r.blocks); b, i = b+1, 0 {
			for _, v := range r.blocks[b][i:] {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// insertAt inserts v at i within s's capacity when it has room (a block
// never reallocates), growing it otherwise (the slice of blocks).
func insertAt[E any](s []E, i int, v E) []E {
	var zero E
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
