package gaea

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gaea/internal/storage"
)

// dirFiles maps every file under dir to its bytes, and every directory
// to nil.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path) // path lies under dir
		if d.IsDir() {
			files[rel] = nil
			return nil
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// reformat returns a meta.db snapshot under another format header, with
// its checksum.
func reformat(meta []byte, header string) []byte {
	old := append([]byte(header), meta[7:len(meta)-4]...)
	return binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
}

// oldGauge is a rain gauge's heap record up to its reading as formats 2
// and 3 stored it: the 0x80 and 0x08 markers in the flags byte, and the
// packed box mask in a byte of its own.
func oldGauge(oid, epoch uint64, x int64) []byte {
	rec := binary.AppendUvarint([]byte{0x98}, epoch) // relative, compact, packed
	rec = binary.AppendUvarint(rec, oid)
	rec = append(rec, 0x0f) // every box coordinate packed
	for _, c := range []int64{x, 0, 10, 10} {
		rec = binary.AppendVarint(rec, c)
	}
	return rec
}

// slotPage is a heap page as formats 2 and 3 wrote it, holding
// recs: a four-byte slot per record (offset, then length) and the
// records placed down from the end of the page, under a crc32 of all
// past the header.
func slotPage(recs ...[]byte) []byte {
	page := make([]byte, storage.PageSize)
	end := storage.PageSize
	for i, rec := range recs {
		end -= len(rec)
		copy(page[end:], rec)
		binary.LittleEndian.PutUint16(page[10+4*i:], uint16(end))
		binary.LittleEndian.PutUint16(page[12+4*i:], uint16(len(rec)))
	}
	binary.LittleEndian.PutUint16(page[0:], 0x6AEA)
	binary.LittleEndian.PutUint16(page[2:], uint16(len(recs)))
	binary.LittleEndian.PutUint16(page[4:], uint16(end))
	binary.LittleEndian.PutUint32(page[6:], crc32.ChecksumIEEE(page[10:]))
	return page
}

// TestOpenRefusesOtherFormats: a directory whose meta.db carries format
// 3 — four bytes per page slot and a separate mask byte — format 2 —
// whose records tag every attribute value — or format 1 — what every
// directory written before the format number holds — and one with heap
// files or WAL bytes but no meta.db are refused with ErrFormat, and Open
// writes nothing in them: every file stays byte for byte as it was, and
// no blobs/ appears.
func TestOpenRefusesOtherFormats(t *testing.T) {
	src := t.TempDir()
	k, err := Open(src, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defineRainClass(t, k)
	oids := seedRain(t, k, 3)
	wal, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil || len(wal) == 0 {
		t.Fatalf("wal.log holds %d bytes: %v", len(wal), err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(src, "meta.db"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(meta, []byte("GMETA4\n")) {
		t.Fatalf("meta.db starts %q, want GMETA4", meta[:min(len(meta), 7)])
	}

	for _, c := range []struct {
		name  string
		build func(dir string) error
		want  string
	}{
		{"format 3 holding a gauge on a 4-byte-slot page", func(dir string) error {
			gauge := append(oldGauge(1000, 1, 300), 12<<2) // a packed float, 12
			if err := os.WriteFile(filepath.Join(dir, "heap_obj_rain.db"), slotPage(gauge), 0o644); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "meta.db"), reformat(meta, "GMETA3\n"), 0o644)
		}, "format 3, not 4"},
		{"format 2 holding a tagged gauge", func(dir string) error {
			gauge := append(oldGauge(1000, 1, 300), 9<<1, 2) // a 9-byte span: tagFloat, then the f64
			gauge = binary.LittleEndian.AppendUint64(gauge, math.Float64bits(12.5))
			if err := os.WriteFile(filepath.Join(dir, "heap_obj_rain.db"), slotPage(gauge), 0o644); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "meta.db"), reformat(meta, "GMETA2\n"), 0o644)
		}, "format 2, not 4"},
		{"format 1", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "meta.db"), reformat(meta, "GMETA1\n"), 0o644)
		}, "format 1, not 4"},
		{"heap files without meta.db", func(dir string) error {
			return os.Remove(filepath.Join(dir, "meta.db"))
		}, "no format number, not 4"},
		{"WAL bytes without meta.db", func(dir string) error {
			entries, err := os.ReadDir(dir)
			for _, e := range entries {
				if err == nil {
					err = os.Remove(filepath.Join(dir, e.Name()))
				}
			}
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644)
		}, "no format number, not 4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := copyDir(t, src)
			if err := os.RemoveAll(filepath.Join(dir, "blobs")); err != nil {
				t.Fatal(err)
			}
			if err := c.build(dir); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			k, err := Open(dir, Options{NoSync: true})
			if err == nil {
				k.Close()
				t.Fatal("Open succeeded")
			}
			if !errors.Is(err, ErrFormat) || !errors.Is(err, storage.ErrFormat) {
				t.Errorf("Open: %v, want ErrFormat", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("Open: %v, want it to say %q", err, c.want)
			}
			if after := dirFiles(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Errorf("Open changed the directory:\nbefore %v\nafter  %v", slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)))
			}
			if _, err := os.Stat(filepath.Join(dir, "blobs")); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("Open created blobs/: %v", err)
			}
		})
	}
	// The directory itself, untouched, still opens.
	k, err = Open(src, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if _, err := k.Objects.Get(oids[0]); err != nil {
		t.Error(err)
	}
}
