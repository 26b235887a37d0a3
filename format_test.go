package gaea

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gaea/internal/object"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/task"
	"gaea/internal/value"
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
// 5 — image blobs stored raw, not in byte planes — format 4 — stale
// marks that can be the only record that a derived version is stale —
// format 3 — four bytes per page slot and a separate mask byte — format
// 2 — whose records tag every attribute value — or format 1 — what every
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
	if !bytes.HasPrefix(meta, []byte("GMETA6\n")) {
		t.Fatalf("meta.db starts %q, want GMETA6", meta[:min(len(meta), 7)])
	}

	for _, c := range []struct {
		name  string
		build func(dir string) error
		want  string
	}{
		{"format 5", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "meta.db"), reformat(meta, "GMETA5\n"), 0o644)
		}, "format 5, not 6"},
		{"format 4", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "meta.db"), reformat(meta, "GMETA4\n"), 0o644)
		}, "format 4, not 6"},
		{"format 3 holding a gauge on a 4-byte-slot page", func(dir string) error {
			gauge := append(oldGauge(1000, 1, 300), 12<<2) // a packed float, 12
			if err := os.WriteFile(filepath.Join(dir, "heap_obj_rain.db"), slotPage(gauge), 0o644); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "meta.db"), reformat(meta, "GMETA3\n"), 0o644)
		}, "format 3, not 6"},
		{"format 2 holding a tagged gauge", func(dir string) error {
			gauge := append(oldGauge(1000, 1, 300), 9<<1, 2) // a 9-byte span: tagFloat, then the f64
			gauge = binary.LittleEndian.AppendUint64(gauge, math.Float64bits(12.5))
			if err := os.WriteFile(filepath.Join(dir, "heap_obj_rain.db"), slotPage(gauge), 0o644); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "meta.db"), reformat(meta, "GMETA2\n"), 0o644)
		}, "format 2, not 6"},
		{"format 1", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "meta.db"), reformat(meta, "GMETA1\n"), 0o644)
		}, "format 1, not 6"},
		{"heap files without meta.db", func(dir string) error {
			return os.Remove(filepath.Join(dir, "meta.db"))
		}, "no format number, not 6"},
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
		}, "no format number, not 6"},
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

var updateGolden = flag.Bool("update", false, "rewrite testdata/format<N>.sha256 from TestFormatGolden's directory")

// TestFormatGolden builds one directory deterministically through the
// public API and compares the sha256 of every file in it with
// testdata/format<N>.sha256, N being the format number meta.db carries.
// The directory holds a gauge load, a scene whose bands are blobs, a
// derivation, a refresh (a delta task record), an update whose old
// version the next commit reclaims, a checkpoint, and a WAL tail after
// it. A change to any stored byte fails it unless the format number
// moves too; go test -run TestFormatGolden -update rewrites the file.
func TestFormatGolden(t *testing.T) {
	defer func(c func() time.Time) { task.Clock = c }(task.Clock)
	task.Clock = func() time.Time { return time.Unix(0, 0) }
	ctx := context.Background()
	k := openKernelOpts(t, Options{NoSync: true, User: "golden", RefreshPolicy: ManualRefresh})
	defineRainClass(t, k)
	s := k.Begin(ctx)
	var gauges []object.OID
	for i := 0; i < 300; i++ {
		oid, err := s.Create(rainObject(float64(i)/4, float64(i*20)), "gauge tape")
		if err != nil {
			t.Fatal(err)
		}
		gauges = append(gauges, oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	if _, _, err := k.RunProcess(ctx, "unsupervised_classification", map[string][]object.OID{"bands": scene}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	band, err := k.Objects.Get(scene[0])
	if err != nil {
		t.Fatal(err)
	}
	img := band.Attrs["data"].(value.Image).Img
	img.Data()[0]++
	if err := k.UpdateObject(ctx, band); err != nil {
		t.Fatal(err)
	}
	if n, err := k.RefreshStale(ctx); n != 1 || err != nil {
		t.Fatalf("RefreshStale = %d, %v", n, err)
	}
	for _, i := range []int{7, 8} { // the second commit reclaims the first's old version
		if err := k.UpdateObject(ctx, rainObjectAt(gauges[i], 99, float64(i*20))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s = k.Begin(ctx)
	for i := 0; i < 5; i++ {
		if _, err := s.Create(rainObject(1, float64(10000+i*20)), "late"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Update(rainObjectAt(gauges[9], 3, 180)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(gauges[10]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Hash the directory as it stands: the WAL tail is not yet checkpointed.
	files := dirFiles(t, k.Dir())
	var lines []string
	for _, name := range slices.Sorted(maps.Keys(files)) {
		if files[name] != nil {
			lines = append(lines, fmt.Sprintf("%x  %s", sha256.Sum256(files[name]), filepath.ToSlash(name)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	header, _, _ := strings.Cut(string(files["meta.db"]), "\n")
	golden := filepath.Join("testdata", "format"+strings.TrimPrefix(header, "GMETA")+".sha256")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v: a new format number needs its golden file (go test -run TestFormatGolden -update)", err)
	}
	if got != string(want) {
		t.Errorf("stored bytes moved under format %s; bump the format number if that is meant.\ngot:\n%swant:\n%s",
			strings.TrimPrefix(header, "GMETA"), got, want)
	}
}

// rainObjectAt is rainObject as a new state of an existing gauge.
func rainObjectAt(oid object.OID, mm, x float64) *object.Object {
	o := rainObject(mm, x)
	o.OID = oid
	return o
}
