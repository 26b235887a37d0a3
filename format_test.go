package gaea

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"maps"
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

// TestOpenRefusesOtherFormats: a directory whose meta.db carries format
// 1 — what every directory written before the format number holds — and
// one with heap files or WAL bytes but no meta.db are refused with
// ErrFormat, and Open writes nothing in them: every file stays byte for
// byte as it was, and no blobs/ appears.
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
	if !bytes.HasPrefix(meta, []byte("GMETA2\n")) {
		t.Fatalf("meta.db starts %q, want GMETA2", meta[:min(len(meta), 7)])
	}
	// The same snapshot under the format-1 header, with its checksum.
	old := append([]byte("GMETA1\n"), meta[7:len(meta)-4]...)
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))

	for _, c := range []struct {
		name  string
		build func(dir string) error
		want  string
	}{
		{"format 1", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "meta.db"), old, 0o644)
		}, "format 1, not 2"},
		{"heap files without meta.db", func(dir string) error {
			return os.Remove(filepath.Join(dir, "meta.db"))
		}, "no format number, not 2"},
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
		}, "no format number, not 2"},
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
