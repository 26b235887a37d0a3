package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// BlobID identifies a large object.
type BlobID uint64

// ErrBlobNotFound is returned for missing blobs.
var ErrBlobNotFound = errors.New("storage: blob not found")

// BlobStore holds large payloads (image pixels) as individual files,
// mirroring the paper's image ADT whose internal representation records a
// filepath: "filepath is the absolute path of the file that stores the
// actual image data" (§2.1.3). Writes are crash-safe via write-temp +
// fsync + rename, so a blob is on disk before the WAL group that refers to
// it; a store opened NoSync skips the fsync as it does the WAL's. Every
// blob carries a checksum footer.
type BlobStore struct {
	dir    string
	noSync bool
}

func openBlobStore(dir string, noSync bool) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &BlobStore{dir: dir, noSync: noSync}, nil
}

func (b *BlobStore) path(id BlobID) string {
	return filepath.Join(b.dir, fmt.Sprintf("%016x.blob", uint64(id)))
}

// Path returns the file path a blob is stored at — the value the paper's
// img_filepath operator reports.
func (b *BlobStore) Path(id BlobID) string { return b.path(id) }

// Put stores data under the given id (ids come from the store's sequence).
func (b *BlobStore) Put(id BlobID, data []byte) error {
	tmp := b.path(id) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	footer := make([]byte, 8)
	binary.LittleEndian.PutUint32(footer, crc32.ChecksumIEEE(data))
	binary.LittleEndian.PutUint32(footer[4:], uint32(len(data)))
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(footer); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if !b.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, b.path(id))
}

// Get returns the blob's bytes, verifying the checksum.
func (b *BlobStore) Get(id BlobID) ([]byte, error) {
	data, err := os.ReadFile(b.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %d", ErrBlobNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("storage: blob %d truncated", id)
	}
	body := data[:len(data)-8]
	footer := data[len(data)-8:]
	wantCRC := binary.LittleEndian.Uint32(footer)
	wantLen := int(binary.LittleEndian.Uint32(footer[4:]))
	if len(body) != wantLen {
		return nil, fmt.Errorf("storage: blob %d length %d, footer says %d", id, len(body), wantLen)
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("storage: blob %d checksum mismatch", id)
	}
	return body, nil
}

// Delete removes a blob; deleting a missing blob is an error so lineage
// bugs surface.
func (b *BlobStore) Delete(id BlobID) error {
	err := os.Remove(b.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %d", ErrBlobNotFound, id)
	}
	return err
}

// Size returns the stored payload size of a blob in bytes (excluding the
// checksum footer). The derived-data manager uses it to weigh storage cost
// against recomputation cost.
func (b *BlobStore) Size(id BlobID) (int64, error) {
	fi, err := os.Stat(b.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %d", ErrBlobNotFound, id)
	}
	if err != nil {
		return 0, err
	}
	n := fi.Size() - 8
	if n < 0 {
		n = 0
	}
	return n, nil
}

// IDs lists all stored blob ids, ascending.
func (b *BlobStore) IDs() ([]BlobID, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var ids []BlobID
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".blob") {
			continue
		}
		hex := strings.TrimSuffix(name, ".blob")
		n, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		ids = append(ids, BlobID(n))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}
