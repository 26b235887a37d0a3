package object

// Raw record access: the path under the v2 wire protocol that never
// decodes a value. An object's attribute values are encoded once — at
// commit, into the class-relative record the storage engine persists —
// and the service layer ships them instead of decoding every attribute
// into value.Value form and re-encoding it per response. What the stored
// record leaves to its class (class name, frame, attribute names and
// types) is stored once, in the catalog; GetRawAt splices it back around
// the stored attributes per shipped record, writing a typed value's
// value.Encode form straight from its stored bytes, so what leaves the
// package is the self-describing GOB3 form (plus the payloads of any
// offloaded image blobs it references, as stored: in raster's byte-plane
// form) and no caller learns how the store lays its records out.
// DecodeWire reverses it on the client side, producing exactly what GetAt
// would have.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"gaea/internal/storage"
	"gaea/internal/value"
)

// BlobPayload carries the stored bytes of one offloaded image blob (its
// raster.Pack form) alongside a raw record that references it.
type BlobPayload struct {
	ID   uint64
	Data []byte
}

// GetRawAt returns the version visible at a pinned epoch as a
// self-describing GOB3 record, without decoding any attribute value, plus
// the payload of every blob the record references. The returned record is
// private to the caller, who may retain and ship it freely.
func (s *Store) GetRawAt(oid OID, epoch uint64) ([]byte, []BlobPayload, error) {
	var (
		rec   []byte
		blobs []BlobPayload
	)
	err := s.read(oid, epoch, func(at resolved) error {
		w, err := s.recordOf(oid, at)
		if err != nil {
			return err
		}
		if rec, err = w.wire(); err != nil {
			return fmt.Errorf("object: oid %d: %w", oid, err)
		}
		blobs = blobs[:0]
		for _, id := range at.v.blobs {
			data, err := s.st.Blobs().Get(id)
			if err != nil {
				return fmt.Errorf("object: oid %d blob %d: %w", oid, id, err)
			}
			blobs = append(blobs, BlobPayload{ID: uint64(id), Data: data})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rec, blobs, nil
}

// EncodeWire serialises an object as a self-contained GOB3 record with
// every attribute inline — no blob offload, no storage side effects —
// so a relay that holds a decoded *Object (the federation router
// re-shipping a shard's page upstream) can speak the raw-record wire
// path without owning a store. DecodeWire(EncodeWire(o), nil) returns
// an object equal to o. The epoch slot is zero: raw-path consumers pin
// epochs out of band (cursors, leases), not from the record.
func EncodeWire(obj *Object) ([]byte, error) {
	names := make([]string, 0, len(obj.Attrs))
	for n := range obj.Attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := appendWireHeader(nil, obj.OID, 0, obj.Class, obj.Extent, len(names))
	for _, n := range names {
		buf = appendStr16(buf, n)
		buf = append(buf, 0, 0, 0, 0, 0) // kind inline, then the length
		mark := len(buf)
		enc, err := value.Append(buf, obj.Attrs[n])
		if err != nil {
			return nil, fmt.Errorf("object: attribute %q: %w", n, err)
		}
		binary.LittleEndian.PutUint32(enc[mark-4:], uint32(len(enc)-mark))
		buf = enc
	}
	return buf, nil
}

// DecodeWire decodes a GOB3 record shipped over the wire, resolving blob
// references against the payload table that travelled with it through
// the same resolveImages as GetAt, so it produces exactly what GetAt
// produces for the same version.
func DecodeWire(rec []byte, blobs []BlobPayload) (*Object, error) {
	w, err := parseRecord(rec, nil)
	if err != nil {
		return nil, err
	}
	obj, err := w.object()
	if err != nil {
		return nil, err
	}
	err = resolveImages(obj, func(id storage.BlobID) ([]byte, error) {
		for i := range blobs {
			if blobs[i].ID == uint64(id) {
				return blobs[i].Data, nil
			}
		}
		return nil, fmt.Errorf("blob %d payload missing", id)
	})
	if err != nil {
		return nil, err
	}
	return obj, nil
}
