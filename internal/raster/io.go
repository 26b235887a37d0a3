package raster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// The paper's external representation for the image class is
// "(nrows, ncols, pixtype, filepath)": image payloads live in files outside
// the record. This file implements that on-disk format — a small
// self-describing header followed by the raw little-endian pixel buffer —
// used both by the blob store and by the IDRISI/GRASS-style file baseline.

const (
	imgMagic   = "GIMG"
	imgVersion = 1
)

// ErrBadImageFile is returned when decoding a corrupt or foreign file.
var ErrBadImageFile = errors.New("raster: not a gaea image file")

// Encode writes the image to w in the Gaea image file format.
func Encode(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(imgMagic); err != nil {
		return err
	}
	hdr := make([]byte, 0, 32)
	hdr = binary.LittleEndian.AppendUint16(hdr, imgVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(im.rows))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(im.cols))
	pt := []byte(im.pixType)
	hdr = append(hdr, byte(len(pt)))
	hdr = append(hdr, pt...)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.Write(im.data); err != nil {
		return err
	}
	return bw.Flush()
}

// Decode reads an image in the Gaea image file format.
func Decode(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	return decode(func(n int) ([]byte, error) {
		b := make([]byte, n)
		_, err := io.ReadFull(br, b)
		return b, err
	})
}

// decode parses an image from take, which returns the next n bytes of its
// encoding or, when fewer are left, io.EOF if none is and
// io.ErrUnexpectedEOF otherwise. The pixel bytes take returns last become
// the image's.
func decode(take func(n int) ([]byte, error)) (*Image, error) {
	magic, err := take(len(imgMagic))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImageFile, err)
	}
	if string(magic) != imgMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadImageFile, magic)
	}
	fixed, err := take(2 + 4 + 4 + 1)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrBadImageFile, err)
	}
	if v := binary.LittleEndian.Uint16(fixed[0:2]); v != imgVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadImageFile, v)
	}
	rows := int(binary.LittleEndian.Uint32(fixed[2:6]))
	cols := int(binary.LittleEndian.Uint32(fixed[6:10]))
	ptBytes, err := take(int(fixed[10]))
	if err != nil {
		return nil, fmt.Errorf("%w: truncated pixtype: %v", ErrBadImageFile, err)
	}
	pt := pixTypeOf(ptBytes)
	if !pt.Valid() {
		return nil, fmt.Errorf("%w: pixtype %q", ErrBadImageFile, pt)
	}
	if rows <= 0 || cols <= 0 || rows*cols > 1<<28 {
		return nil, fmt.Errorf("%w: implausible dims %dx%d", ErrBadImageFile, rows, cols)
	}
	data, err := take(rows * cols * pt.Size())
	if err != nil {
		return nil, fmt.Errorf("%w: truncated pixels: %v", ErrBadImageFile, err)
	}
	return FromData(rows, cols, pt, data)
}

// pixTypeOf is the pixel type named b, without a copy of b when it is one
// of the known types.
func pixTypeOf(b []byte) PixType {
	for _, pt := range [...]PixType{PixChar, PixInt2, PixInt4, PixFloat4, PixFloat8} {
		if string(b) == string(pt) {
			return pt
		}
	}
	return PixType(b)
}

// WriteFile stores the image at path (the img_filepath the paper's internal
// representation records).
func WriteFile(path string, im *Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, im); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads an image previously written by WriteFile.
func ReadFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Marshal returns the image encoded as a byte slice (header + pixels),
// the form stored in the blob store.
func Marshal(im *Image) []byte {
	buf := make([]byte, 0, len(imgMagic)+11+len(im.pixType)+len(im.data))
	buf = append(buf, imgMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, imgVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(im.rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(im.cols))
	buf = append(buf, byte(len(im.pixType)))
	buf = append(buf, im.pixType...)
	buf = append(buf, im.data...)
	return buf
}

// Unmarshal decodes an image produced by Marshal, failing as Decode does
// on the same bytes. It reads the header where it lies and copies the
// pixels once, so the image does not share b.
func Unmarshal(b []byte) (*Image, error) {
	im, err := decode(func(n int) ([]byte, error) {
		if len(b) < n {
			if len(b) == 0 {
				return nil, io.EOF
			}
			return nil, io.ErrUnexpectedEOF
		}
		p := b[:n:n]
		b = b[n:]
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	im.data = bytes.Clone(im.data)
	return im, nil
}
