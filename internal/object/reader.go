package object

import (
	"encoding/binary"
	"fmt"
	"math"
)

// reader is a cursor over an encoded object record that accumulates the
// first error instead of forcing a check per read.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	r.failf("object: truncated record reading %s at offset %d", what, r.off)
}

// failf records a malformed record; the first error sticks.
func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("bytes")
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// varint reads a zig-zag varint (binary.AppendVarint's form).
func (r *reader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *reader) str16() string {
	n := int(r.u16())
	b := r.bytes(n)
	if b == nil {
		return ""
	}
	return string(b)
}
