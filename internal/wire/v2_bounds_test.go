package wire

// Decode-bound regression tests: a frame body is at most MaxFrame bytes,
// but the counts *inside* it are attacker-chosen uvarints. Before
// Dec.Cap, `make(..., n)` with a claimed count of 2^62 panicked in
// makeslice (or OOMed) — a remote crash from a ~20-byte body. These
// tests pin the fix: a huge claimed count must produce a clean
// truncation error, never a panic or a giant allocation.

import (
	"encoding/binary"
	"testing"
)

func TestDecCap(t *testing.T) {
	d := NewDec(make([]byte, 10))
	if got := d.Cap(3); got != 3 {
		t.Fatalf("Cap(3) with 10 bytes = %d, want 3", got)
	}
	if got := d.Cap(10); got != 10 {
		t.Fatalf("Cap(10) with 10 bytes = %d, want 10", got)
	}
	if got := d.Cap(1 << 62); got != 10 {
		t.Fatalf("Cap(1<<62) with 10 bytes = %d, want 10", got)
	}
	if got := NewDec(nil).Cap(5); got != 0 {
		t.Fatalf("Cap(5) with empty body = %d, want 0", got)
	}
}

// hugeCount is a claimed element count far beyond any frame:
// pre-fix, sizing a make() with it panics with "cap out of range".
const hugeCount = uint64(1) << 62

func TestV2DecodeResponseHugeOIDCount(t *testing.T) {
	body := []byte{byte(CodeOK), respHasOIDs}
	body = binary.AppendUvarint(body, 1) // epoch
	body = binary.AppendUvarint(body, 0) // lease
	body = binary.AppendUvarint(body, 0) // n
	body = binary.AppendUvarint(body, hugeCount)
	if _, err := DecodeResponse(body); err == nil {
		t.Fatal("huge OID count decoded successfully, want truncation error")
	}
}

func TestV2DecodeResultHugeCounts(t *testing.T) {
	// Each of the four counted vectors in a ResultPayload, claimed huge
	// in turn (the earlier ones empty).
	for field := 0; field < 4; field++ {
		body := []byte{byte(CodeOK), respHasResult}
		body = binary.AppendUvarint(body, 1) // epoch
		body = binary.AppendUvarint(body, 0) // lease
		body = binary.AppendUvarint(body, 0) // n
		for i := 0; i < field; i++ {
			body = binary.AppendUvarint(body, 0) // empty preceding vector
		}
		body = binary.AppendUvarint(body, hugeCount)
		if _, err := DecodeResponse(body); err == nil {
			t.Fatalf("result field %d: huge count decoded successfully", field)
		}
	}
}

func TestV2DecodeBatchHugeCreateCount(t *testing.T) {
	body := []byte{0, reqHasBatch}
	body = binary.AppendUvarint(body, 0) // lease
	body = binary.AppendUvarint(body, 0) // oid
	body = binary.AppendUvarint(body, 0) // epoch
	body = binary.AppendUvarint(body, 0) // window
	body = binary.AppendUvarint(body, 0) // page
	body = binary.AppendUvarint(body, 0) // batch read epoch
	body = binary.AppendUvarint(body, hugeCount)
	var req Request
	if err := DecodeRequest(body, &req); err == nil {
		t.Fatal("huge create count decoded successfully, want truncation error")
	}
}

func TestV2DecodeQueryHugeStrategyCount(t *testing.T) {
	body := []byte{0, reqHasQuery}
	body = binary.AppendUvarint(body, 0)           // lease
	body = binary.AppendUvarint(body, 0)           // oid
	body = binary.AppendUvarint(body, 0)           // epoch
	body = binary.AppendUvarint(body, 0)           // window
	body = binary.AppendUvarint(body, 0)           // page
	body = binary.AppendUvarint(body, 0)           // class: empty
	body = binary.AppendUvarint(body, 0)           // concept: empty
	body = append(body, 0, 0, 0, 0, 0, 0, 0, 0, 0) // zero extent
	body = binary.AppendUvarint(body, hugeCount)
	var req Request
	if err := DecodeRequest(body, &req); err == nil {
		t.Fatal("huge strategy count decoded successfully, want truncation error")
	}
}

func TestV2DecodeRawObjectHugeBlobCount(t *testing.T) {
	var body []byte
	body = binary.AppendUvarint(body, 7) // oid
	body = binary.AppendUvarint(body, 0) // class: empty
	body = binary.AppendUvarint(body, 0) // rec: empty
	body = binary.AppendUvarint(body, hugeCount)
	d := NewDec(body)
	DecodeRawObject(d, true)
	if d.Err() == nil {
		t.Fatal("huge blob count decoded successfully, want truncation error")
	}
}
