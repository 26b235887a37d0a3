package storage

// Regression test for the group-decode allocation bound: the sub-entry
// count in a group record is a raw uint32 off disk, so a corrupt (or
// crafted) record could claim 2^32-1 entries and size a multi-hundred-GB
// slice before the per-entry truncation checks ever ran. decodeGroup
// clamps the allocation by the bytes that could possibly back it.

import (
	"encoding/binary"
	"testing"
)

func TestDecodeGroupHugeCount(t *testing.T) {
	stamped := []byte{opEpochBatch}
	stamped = binary.LittleEndian.AppendUint64(stamped, 42)
	stamped = binary.LittleEndian.AppendUint32(stamped, 0xFFFFFFFF)
	if _, _, err := decodeGroup(stamped); err == nil {
		t.Fatal("huge stamped batch count decoded successfully, want truncation error")
	}
}
