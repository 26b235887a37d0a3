package wire

// The federation vector cursor: one resume token covering a scatter-
// gather stream over N shards. Each component carries that shard's own
// resume state — the per-shard `c2` cursor string plus the epoch its
// pages were pinned at, or a done marker once the shard's extent is
// exhausted — so a client can resume the merge mid-flight on any
// connection, against any router, and each shard picks up exactly where
// its own stream stopped.
//
// Format: the literal prefix "cv1|" followed by the URL-safe base64 of
// a v2-style binary body:
//
//	count uvarint, then per component:
//	  shard uvarint | epoch uvarint | done u8 | cursor (uvarint-len bytes)
//
// The prefix keeps vector cursors textually disjoint from single-kernel
// `c2` cursors (and from the v1 `c1` lineage), so every cursor-accepting
// surface can dispatch on sight. Decoding is bounded exactly like the
// frame decoders: component counts pass through Dec.Cap before sizing an
// allocation, so a hostile 10-byte cursor cannot size a huge slice.

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// VectorCursorPrefix marks a federation vector cursor.
const VectorCursorPrefix = "cv1|"

// ShardCursor is one component of a vector cursor.
type ShardCursor struct {
	// Shard is the shard index in the federation's shard list.
	Shard int
	// Epoch is the MVCC epoch this shard's stream is pinned at (0 = the
	// shard stream fell back to an unpinned scan and is not resumable).
	Epoch uint64
	// Done marks a shard whose extent is exhausted; Cursor is "" then.
	Done bool
	// Cursor is the shard's own resume token (a `c2` cursor).
	Cursor string
}

// IsVectorCursor reports whether s looks like a federation vector
// cursor (cheap prefix test; decoding may still reject it).
func IsVectorCursor(s string) bool { return strings.HasPrefix(s, VectorCursorPrefix) }

// EncodeVectorCursor renders components as one resume token. Components
// are sorted by shard index so equal cursor states encode identically
// (the fuzz target relies on canonical round-trips).
func EncodeVectorCursor(comps []ShardCursor) string {
	sorted := append([]ShardCursor(nil), comps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(sorted)))
	for i := range sorted {
		c := &sorted[i]
		b = binary.AppendUvarint(b, uint64(c.Shard))
		b = binary.AppendUvarint(b, c.Epoch)
		if c.Done {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(len(c.Cursor)))
		b = append(b, c.Cursor...)
	}
	return VectorCursorPrefix + base64.RawURLEncoding.EncodeToString(b)
}

// DecodeVectorCursor parses a vector cursor. It rejects anything that is
// not canonical: unknown prefix, bad base64, trailing bytes, unsorted or
// duplicate shard indices, a done component carrying a cursor, or a
// shard index that does not fit an int. Everything it accepts
// re-encodes byte-for-byte identically.
func DecodeVectorCursor(s string) ([]ShardCursor, error) {
	if !IsVectorCursor(s) {
		return nil, fmt.Errorf("wire: not a vector cursor")
	}
	// Strict decoding rejects non-zero padding bits, and the explicit
	// newline check closes the one hole Strict leaves (the decoder skips
	// \r\n) — together they make every accepted string canonical.
	if strings.ContainsAny(s, "\r\n") {
		return nil, fmt.Errorf("wire: bad vector cursor: embedded newline")
	}
	body, err := base64.RawURLEncoding.Strict().DecodeString(s[len(VectorCursorPrefix):])
	if err != nil {
		return nil, fmt.Errorf("wire: bad vector cursor: %v", err)
	}
	d := NewDec(body)
	n := d.Uvarint()
	comps := make([]ShardCursor, 0, d.Cap(n))
	last := -1
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		shard := d.Uvarint()
		c := ShardCursor{
			Epoch:  d.Uvarint(),
			Done:   d.Bool(),
			Cursor: d.Str(),
		}
		if d.Err() != nil {
			break
		}
		if shard > uint64(int(^uint(0)>>1)) {
			return nil, fmt.Errorf("wire: vector cursor shard index overflows")
		}
		c.Shard = int(shard)
		if c.Shard <= last {
			return nil, fmt.Errorf("wire: vector cursor shards out of order")
		}
		if c.Done && c.Cursor != "" {
			return nil, fmt.Errorf("wire: vector cursor done shard carries a cursor")
		}
		last = c.Shard
		comps = append(comps, c)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wire: bad vector cursor: %v", err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wire: vector cursor trailing bytes")
	}
	if uint64(len(comps)) != n {
		return nil, fmt.Errorf("wire: bad vector cursor: truncated")
	}
	// What the checks above let through and is still not canonical — a
	// padded uvarint, a done flag other than 0 or 1 — shows as a different
	// re-encoding.
	if EncodeVectorCursor(comps) != s {
		return nil, fmt.Errorf("wire: vector cursor is not in canonical form")
	}
	return comps, nil
}
