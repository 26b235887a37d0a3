package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// blobFiles lists the files under a store's blobs directory.
func blobFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// logBytes sums the sizes of the files under a store's blobs directory.
func logBytes(t testing.TB, dir string) int64 {
	t.Helper()
	var n int64
	for _, name := range blobFiles(t, dir) {
		fi, err := os.Stat(filepath.Join(dir, "blobs", name))
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// liveBytes is what the log holds right after a checkpoint: every live
// blob's payload and framing, nothing else.
func liveBytes(b *BlobStore) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var n int64
	for id, loc := range b.index {
		n += recordLen(id, loc.n)
	}
	return n
}

// flipByte inverts one byte of a file.
func flipByte(t testing.TB, path string, at int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
}

func blobPayload(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 'p'}, 50+i%200) }

// TestBlobStore runs with and without the fsync after each append
// (Options.NoSync).
func TestBlobStore(t *testing.T) {
	for _, noSync := range []bool{true, false} {
		t.Run(fmt.Sprintf("NoSync=%v", noSync), func(t *testing.T) { testBlobStore(t, noSync) })
	}
}

func testBlobStore(t *testing.T, noSync bool) {
	dir := t.TempDir()
	open := func() *Store {
		t.Helper()
		s, err := Open(dir, Options{NoSync: noSync})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const n = 1000
	check := func(s *Store, gone func(int) bool) {
		t.Helper()
		var want []BlobID
		for i := 1; i <= n; i++ {
			got, err := s.Blobs().Get(BlobID(i))
			if gone(i) {
				if !errors.Is(err, ErrBlobNotFound) {
					t.Fatalf("deleted blob %d: %d bytes, %v", i, len(got), err)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, blobPayload(i)) {
				t.Fatalf("blob %d reads %d bytes, %v", i, len(got), err)
			}
			if size, err := s.Blobs().Size(BlobID(i)); err != nil || size != int64(len(got)) {
				t.Fatalf("blob %d: Size %d, %v; holds %d bytes", i, size, err, len(got))
			}
			want = append(want, BlobID(i))
		}
		if ids, err := s.Blobs().IDs(); err != nil || !slices.Equal(ids, want) {
			t.Fatalf("IDs lists %d blobs, %v; want %d", len(ids), err, len(want))
		}
	}
	none := func(int) bool { return false }

	s := open()
	for i := 1; i <= n; i++ {
		if err := s.Blobs().Put(BlobID(i), blobPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if files := blobFiles(t, dir); len(files) != 1 {
		t.Errorf("%d puts left %d files under blobs/, want 1", n, len(files))
	}
	check(s, none)

	// Round trip across a reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	check(s, none)

	// A flipped byte in the checksum, the id, the length or the data
	// fails Get; restored, the blob reads again.
	loc := s.blobs.index[7]
	seg := filepath.Join(dir, "blobs", segName(loc.seg.no))
	for _, at := range []int64{loc.off, loc.off + 4, loc.off + 6, loc.off + recordLen(7, loc.n) - 1} {
		flipByte(t, seg, at)
		if _, err := s.Blobs().Get(7); !errors.Is(err, ErrBlobCorrupt) {
			t.Errorf("byte %d of the record flipped: Get = %v, want ErrBlobCorrupt", at-loc.off, err)
		}
		flipByte(t, seg, at)
		if got, err := s.Blobs().Get(7); err != nil || !bytes.Equal(got, blobPayload(7)) {
			t.Fatalf("byte %d restored: %v", at-loc.off, err)
		}
	}

	// Delete, checkpoint, reopen: the blobs are gone, and the log holds
	// exactly the live payloads and their framing.
	deleted := func(i int) bool { return i%3 == 0 }
	for i := 3; i <= n; i += 3 {
		if err := s.Blobs().Delete(BlobID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Blobs().Delete(3); !errors.Is(err, ErrBlobNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, want := logBytes(t, dir), liveBytes(s.blobs); got != want {
		t.Errorf("after a checkpoint the log holds %d bytes, its live blobs %d", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	check(s, deleted)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn append is truncated; the blobs before it still read, and
	// the next append lands where the torn one began.
	files := blobFiles(t, dir)
	last := filepath.Join(dir, "blobs", files[len(files)-1])
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	rec := appendRecord(nil, n+1, blobPayload(n+1))
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	check(s, deleted)
	if _, err := s.Blobs().Get(n + 1); !errors.Is(err, ErrBlobNotFound) {
		t.Errorf("torn blob: %v", err)
	}
	if after, err := os.Stat(last); err != nil || after.Size() != fi.Size() {
		t.Fatalf("torn segment not truncated back to %d bytes: %v", fi.Size(), err)
	}
	if err := s.Blobs().Put(n+1, blobPayload(n+1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	if got, err := s.Blobs().Get(n + 1); err != nil || !bytes.Equal(got, blobPayload(n+1)) {
		t.Errorf("blob appended after a torn tail: %v", err)
	}
}

// TestBlobLogSegments: past its size cap the log starts a new segment; a
// checkpoint rewrites only segments that hold a dead byte; an id found in
// two segments, as a crash during compaction leaves it, reads as the newer
// copy; and a sealed segment that does not frame fails Open with
// ErrBlobCorrupt.
func TestBlobLogSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	s.blobs.limit = 4 << 10
	for i := 1; i <= 40; i++ {
		if err := s.Blobs().Put(BlobID(i), bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	files := blobFiles(t, dir)
	if len(files) < 4 {
		t.Fatalf("40 KB of blobs under a 4 KiB cap fill %d segments", len(files))
	}
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "blobs", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	sealed := make(map[string][]byte)
	for _, name := range files[1 : len(files)-1] {
		sealed[name] = read(name)
	}
	if err := s.Blobs().Delete(1); err != nil { // a dead byte in the first segment only
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := blobFiles(t, dir)
	if slices.Contains(after, files[0]) {
		t.Errorf("the segment holding the dead blob survived the checkpoint: %v", after)
	}
	for name, data := range sealed {
		if !slices.Contains(after, name) || !bytes.Equal(read(name), data) {
			t.Errorf("segment %s holds no dead byte but the checkpoint rewrote it", name)
		}
	}
	if got, want := logBytes(t, dir), liveBytes(s.blobs); got != want {
		t.Errorf("after a checkpoint the log holds %d bytes, its live blobs %d", got, want)
	}
	next := s.blobs.nextNo
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	newer := appendRecord(nil, 2, []byte("copied by a compaction that crashed"))
	if err := os.WriteFile(filepath.Join(dir, "blobs", segName(next)), newer, 0o644); err != nil {
		t.Fatal(err)
	}
	s = openTestStore(t, dir)
	if got, err := s.Blobs().Get(2); err != nil || string(got) != "copied by a compaction that crashed" {
		t.Errorf("blob in two segments reads %q, %v; want the newer copy", got, err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, want := logBytes(t, dir), liveBytes(s.blobs); got != want {
		t.Errorf("the superseded copy survived the checkpoint: %d bytes on disk, %d live", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	files = blobFiles(t, dir)
	flipByte(t, filepath.Join(dir, "blobs", files[0]), 10)
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrBlobCorrupt) {
		t.Errorf("Open over a corrupt sealed segment: %v, want ErrBlobCorrupt", err)
	}
}

// TestBlobStoreConcurrentCheckpoint drives Put, Get and Delete from
// several goroutines while checkpoints compact the log under them (run it
// with -race): every blob reads back as put until it is deleted, and a
// final checkpoint leaves exactly the survivors.
func TestBlobStoreConcurrentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	defer s.Close()
	b := s.Blobs()
	b.limit = 16 << 10
	const workers, per = 4, 200
	data := func(id BlobID) []byte { return bytes.Repeat([]byte{byte(id), byte(id >> 8)}, 20+int(id)%300) }
	stop := make(chan struct{})
	cpErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				cpErr <- nil
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				cpErr <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := BlobID(w*per + i + 1)
				if err := b.Put(id, data(id)); err != nil {
					t.Error(err)
					return
				}
				for _, r := range []BlobID{id, id - BlobID(i%2)} { // itself, and a kept earlier one
					if got, err := b.Get(r); err != nil || !bytes.Equal(got, data(r)) {
						t.Errorf("blob %d reads %d bytes, %v", r, len(got), err)
						return
					}
				}
				if i%2 == 0 {
					continue
				}
				if err := b.Delete(id - 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-cpErr; err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ids, _ := b.IDs()
	if len(ids) != workers*per/2 {
		t.Errorf("%d blobs survive, want %d", len(ids), workers*per/2)
	}
	for _, id := range ids {
		if got, err := b.Get(id); err != nil || !bytes.Equal(got, data(id)) || id%2 != 0 {
			t.Errorf("survivor %d reads %d bytes, %v", id, len(got), err)
		}
	}
	if got, want := logBytes(t, dir), liveBytes(b); got != want {
		t.Errorf("after a checkpoint the log holds %d bytes, its live blobs %d", got, want)
	}
}

// FuzzBlobLog opens arbitrary bytes as the blob log: once as its active
// segment, once as a sealed segment before an empty active one. Open never
// panics, a sealed segment that does not frame is ErrBlobCorrupt, every
// blob Open indexes reads back verified at its indexed size, and an append
// after a truncated tail reads back across a reopen.
func FuzzBlobLog(f *testing.F) {
	two := appendRecord(appendRecord(nil, 1, []byte("pixels")), 300, bytes.Repeat([]byte{7}, 200))
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sealed := range []bool{false, true} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if sealed {
				if err := os.WriteFile(filepath.Join(dir, segName(2)), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			b, err := openBlobStore(dir, true)
			if err != nil {
				if !sealed || !errors.Is(err, ErrBlobCorrupt) {
					t.Fatalf("sealed %v: Open = %v", sealed, err)
				}
				continue
			}
			ids, _ := b.IDs()
			readAll := func(b *BlobStore) {
				for _, id := range ids {
					got, err := b.Get(id)
					size, _ := b.Size(id)
					if err != nil || int64(len(got)) != size {
						t.Fatalf("blob %d reads %d bytes, %v; indexed at %d", id, len(got), err, size)
					}
				}
			}
			readAll(b)
			const extra = 1 << 62 // should the log hold it already, the append supersedes it
			if err := b.Put(extra, []byte("appended")); err != nil {
				t.Fatal(err)
			}
			b.close()
			if b, err = openBlobStore(dir, true); err != nil {
				t.Fatalf("reopen after an append: %v", err)
			}
			readAll(b)
			if got, err := b.Get(extra); err != nil || string(got) != "appended" {
				t.Fatalf("appended blob reads %q, %v", got, err)
			}
			b.close()
		}
	})
}

// BenchmarkBlobPut puts 4 KiB blobs under 1,024 ids in turn; each round
// of 1,024 is followed, off the clock, by a checkpoint, so the directory
// stays bounded however many rounds run. (A b.N loop: under Go 1.24,
// b.Loop never ends once StartTimer runs inside it.)
func BenchmarkBlobPut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data := bytes.Repeat([]byte{'p'}, 4<<10)
	const n = 1024
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := range b.N {
		id := BlobID(i%n + 1)
		if err := s.Blobs().Put(id, data); err != nil {
			b.Fatal(err)
		}
		if id == n {
			b.StopTimer()
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkBlobGet reads 4 KiB blobs back from 1,024 in turn.
func BenchmarkBlobGet(b *testing.B) {
	s, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data := bytes.Repeat([]byte{'p'}, 4<<10)
	const n = 1024
	for id := BlobID(1); id <= n; id++ {
		if err := s.Blobs().Put(id, data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(data)))
	var id BlobID
	for b.Loop() {
		id = id%n + 1
		if _, err := s.Blobs().Get(id); err != nil {
			b.Fatal(err)
		}
	}
}
