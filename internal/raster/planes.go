package raster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// The byte-plane form is how the object store keeps an image blob. Byte p
// of every pixel (one plane for char, four for float4) is stored apart:
// the plane's distinct bytes, ascending, then each pixel's index into
// them at the least width that holds it, 0 to 7 bits. A plane with more
// than 128 distinct bytes is stored verbatim. A derived product holds few
// distinct values (a 12-class land cover packs to half a byte per pixel),
// and even a float band's top byte takes only a couple; this is the
// dictionary-and-bit-packing encoding column stores run at memory speed
// (Abadi, Madden & Ferreira, SIGMOD 2006). The form moves bytes, not
// values, so −0, NaN payloads and subnormals read back exactly. The
// layout is README's "On-disk format 6", *Image blob*; Unpack accepts
// only what Pack writes, so a blob reads back as exactly one image.

const (
	planesMagic = "GPLN"
	maxDict     = 128  // the most distinct bytes a packed plane holds
	verbatim    = 0xFF // the width byte of a plane stored as it is
)

// pixCodes numbers the pixel types in the form's header, from 1.
var pixCodes = [...]PixType{PixChar, PixInt2, PixInt4, PixFloat4, PixFloat8}

// Pack returns im in the byte-plane form.
func Pack(im *Image) []byte {
	sz, n, data := im.pixType.Size(), im.Pixels(), im.data
	var dicts [8][]byte
	var dictBuf [8][256]byte
	size := len(planesMagic) + 2*binary.MaxVarintLen64 + 1
	for p := range sz {
		var seen [256]bool
		for i := p; i < len(data); i += sz {
			seen[data[i]] = true
		}
		dict := dictBuf[p][:0]
		for b, ok := range seen {
			if ok {
				dict = append(dict, byte(b))
			}
		}
		dicts[p] = dict
		size += planeSize(len(dict), n)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, planesMagic...)
	buf = binary.AppendUvarint(buf, uint64(im.rows))
	buf = binary.AppendUvarint(buf, uint64(im.cols))
	for c, pt := range pixCodes {
		if pt == im.pixType {
			buf = append(buf, byte(c+1))
		}
	}
	for p := range sz {
		buf = appendPlane(buf, data[p:], sz, n, dicts[p])
	}
	return buf
}

// planeSize is the stored size of a plane of n pixels and count distinct
// bytes.
func planeSize(count, n int) int {
	if count > maxDict {
		return 1 + n
	}
	return 2 + count + (n*bits.Len(uint(count-1))+7)/8
}

// appendPlane appends the plane of n pixels that starts at data[0] and
// strides by sz, whose distinct bytes are dict, ascending.
func appendPlane(buf, data []byte, sz, n int, dict []byte) []byte {
	if len(dict) > maxDict {
		buf = append(buf, verbatim)
		at := len(buf)
		buf = append(buf, make([]byte, n)...)
		for k, out := 0, buf[at:]; k < len(out); k++ {
			out[k] = data[k*sz]
		}
		return buf
	}
	w := uint(bits.Len(uint(len(dict) - 1)))
	buf = append(buf, byte(w), byte(len(dict)-1))
	buf = append(buf, dict...)
	if w == 0 {
		return buf
	}
	var index [256]byte
	for k, b := range dict {
		index[b] = byte(k)
	}
	// Indices fill the stream from each byte's low bit up.
	var acc uint64
	var nb uint
	for i := 0; i < len(data); i += sz {
		acc |= uint64(index[data[i]]) << nb
		if nb += w; nb >= 32 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(acc))
			acc >>= 32
			nb -= 32
		}
	}
	for ; nb > 0; nb -= min(nb, 8) {
		buf = append(buf, byte(acc))
		acc >>= 8
	}
	return buf
}

// plane is one plane of a stored image as Unpack finds it: its width
// (8 when verbatim), its dictionary, and its pixel bytes or indices.
type plane struct {
	width uint
	dict  []byte
	body  []byte
}

// Unpack decodes an image in the byte-plane form, failing with
// ErrBadImageFile on anything Pack does not write: a truncation, a
// corrupt header, a width above 7, a dictionary that is not the least
// for its width or not ascending, an index past the dictionary or an
// entry no pixel uses, nonzero padding, a verbatim plane that would
// pack, or trailing bytes. Every plane's extent is checked before the
// pixels are allocated. The image does not share b.
func Unpack(b []byte) (*Image, error) {
	rows, cols, pt, rest, err := planesHeader(b)
	if err != nil {
		return nil, err
	}
	n, sz := rows*cols, pt.Size()
	var planes [8]plane
	for p := range sz {
		if planes[p], rest, err = cutPlane(rest, n); err != nil {
			return nil, fmt.Errorf("%w: plane %d: %v", ErrBadImageFile, p, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadImageFile, len(rest))
	}
	data := make([]byte, n*sz)
	for p := range sz {
		if err := planes[p].fill(data[p:], sz); err != nil {
			return nil, fmt.Errorf("%w: plane %d: %v", ErrBadImageFile, p, err)
		}
	}
	return &Image{rows: rows, cols: cols, pixType: pt, data: data}, nil
}

// planesHeader parses the form's header: the image's shape and pixel
// type, and the bytes that follow.
func planesHeader(b []byte) (rows, cols int, pt PixType, rest []byte, err error) {
	if len(b) < len(planesMagic) || string(b[:len(planesMagic)]) != planesMagic {
		return 0, 0, "", nil, fmt.Errorf("%w: bad magic %q", ErrBadImageFile, b[:min(len(b), len(planesMagic))])
	}
	rest = b[len(planesMagic):]
	var dims [2]uint64
	for i := range dims {
		var k int
		if dims[i], k = binary.Uvarint(rest); k <= 0 {
			return 0, 0, "", nil, fmt.Errorf("%w: truncated or corrupt dims", ErrBadImageFile)
		}
		rest = rest[k:]
	}
	if dims[0] == 0 || dims[1] == 0 || dims[0] > 1<<28 || dims[1] > 1<<28 || dims[0]*dims[1] > 1<<28 {
		return 0, 0, "", nil, fmt.Errorf("%w: implausible dims %dx%d", ErrBadImageFile, dims[0], dims[1])
	}
	if len(rest) == 0 {
		return 0, 0, "", nil, fmt.Errorf("%w: truncated pixtype", ErrBadImageFile)
	}
	c := int(rest[0])
	if c < 1 || c > len(pixCodes) {
		return 0, 0, "", nil, fmt.Errorf("%w: pixtype code %d", ErrBadImageFile, c)
	}
	return int(dims[0]), int(dims[1]), pixCodes[c-1], rest[1:], nil
}

// cutPlane splits the next plane of n pixels off b.
func cutPlane(b []byte, n int) (plane, []byte, error) {
	if len(b) == 0 {
		return plane{}, nil, errors.New("truncated")
	}
	if b[0] == verbatim {
		if len(b)-1 < n {
			return plane{}, nil, errors.New("truncated verbatim bytes")
		}
		return plane{width: 8, body: b[1 : 1+n]}, b[1+n:], nil
	}
	w := uint(b[0])
	if w > 7 {
		return plane{}, nil, fmt.Errorf("width %d", w)
	}
	if len(b) < 2 {
		return plane{}, nil, errors.New("truncated dictionary size")
	}
	count := int(b[1]) + 1
	if uint(bits.Len(uint(count-1))) != w {
		return plane{}, nil, fmt.Errorf("%d entries at width %d", count, w)
	}
	end := 2 + count + (n*int(w)+7)/8
	if len(b) < end {
		return plane{}, nil, errors.New("truncated dictionary or indices")
	}
	dict := b[2 : 2+count]
	for k := 1; k < count; k++ {
		if dict[k] <= dict[k-1] {
			return plane{}, nil, fmt.Errorf("dictionary not ascending at entry %d", k)
		}
	}
	return plane{width: w, dict: dict, body: b[2+count : end]}, b[end:], nil
}

// fill writes the plane's bytes to data[0], data[sz], … to the end of
// data.
func (pl plane) fill(data []byte, sz int) error {
	if pl.width == 8 {
		var seen [256]bool
		for i, b := range pl.body {
			data[i*sz] = b
			seen[b] = true
		}
		count := 0
		for _, ok := range seen {
			if ok {
				count++
			}
		}
		if count <= maxDict {
			return fmt.Errorf("verbatim with %d distinct bytes", count)
		}
		return nil
	}
	if pl.width == 0 {
		for j := 0; j < len(data); j += sz {
			data[j] = pl.dict[0]
		}
		return nil
	}
	// An index is read from the little-endian word at its first byte
	// while a whole word lies in the body, then byte by byte. Every index
	// marks used: one at or past the dictionary's end is caught after.
	var lut [maxDict]byte
	var used [maxDict]bool
	copy(lut[:], pl.dict)
	w, body := pl.width, pl.body
	mask := uint64(1)<<w - 1
	n := (len(data) + sz - 1) / sz
	fast := 0
	if len(body) >= 8 {
		fast = min(n, ((len(body)-7)*8+int(w)-1)/int(w))
	}
	for i := range fast {
		pos := uint(i) * w
		k := binary.LittleEndian.Uint64(body[pos>>3:]) >> (pos & 7) & mask & (maxDict - 1)
		used[k] = true
		data[i*sz] = lut[k]
	}
	for i := fast; i < n; i++ {
		pos := uint(i) * w
		v := uint64(body[pos>>3])
		if pos&7+w > 8 {
			v |= uint64(body[pos>>3+1]) << 8
		}
		k := v >> (pos & 7) & mask & (maxDict - 1)
		used[k] = true
		data[i*sz] = lut[k]
	}
	if pad := uint(n) * w & 7; pad != 0 && body[len(body)-1]>>pad != 0 {
		return errors.New("nonzero padding")
	}
	for k, u := range used {
		if u != (k < len(pl.dict)) {
			if u {
				return fmt.Errorf("index %d past a dictionary of %d", k, len(pl.dict))
			}
			return fmt.Errorf("dictionary entry %d unused", k)
		}
	}
	return nil
}
