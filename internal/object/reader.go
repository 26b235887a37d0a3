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

// float reads a float attribute of a compact record and returns its
// IEEE bits: floatRaw and a raw f64, or a packed integer,
// uvarint(zigzag(n)<<1), within ±2^53. A first byte with its low bit
// set but not floatRaw is refused.
func (r *reader) float() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.buf) && r.buf[r.off]&1 != 0 {
		if marker := r.u8(); marker != floatRaw {
			r.failf("object: float marker %#x", marker)
			return 0
		}
		return r.u64()
	}
	z := r.uvarint() >> 1
	n := int64(z >> 1)
	if z&1 != 0 {
		n = ^n
	}
	if n < -maxExact || n > maxExact {
		r.failf("object: packed float %d outside ±2^53", n)
		return 0
	}
	return math.Float64bits(float64(n))
}
