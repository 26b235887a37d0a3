package storage

import (
	"encoding/binary"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// frameRecord frames a payload as one WAL record: length, crc, payload.
func frameRecord(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// opUnstamped is the opcode of the group form without an epoch that
// writers logged before every group was stamped; replay refuses it.
const opUnstamped = 5

// groupPayload builds a group record: epoch-stamped, or in the unstamped
// form replay refuses.
func groupPayload(stamped bool, epoch uint64, subs ...[]byte) []byte {
	buf := []byte{opUnstamped}
	if stamped {
		buf = binary.LittleEndian.AppendUint64([]byte{opEpochBatch}, epoch)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(subs)))
	for _, p := range subs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// walSeeds are the seed payloads of FuzzWALReplay, as committed under
// testdata/fuzz/FuzzWALReplay: a group of every op, the same group torn
// short, and five records replay refuses — each op as a top-level
// record, the unstamped group form, and a group holding op 4, the meta
// delete formats up to 5 wrote.
func walSeeds() [][]byte {
	ops := [][]byte{
		insertPayload("fz", RID{Page: 0, Slot: 1}, []byte("second")),
		metaSetPayload("k", []byte("v")),
		deletePayload("fz", RID{Page: 0, Slot: 0}),
	}
	group := groupPayload(true, 7, ops...)
	return [][]byte{
		group,
		group[:len(group)-1],
		ops[0], ops[2], ops[1],
		groupPayload(false, 0, ops[0], ops[1]),
		groupPayload(true, 7, ops[1], metaDelPayload("fuzz/before")),
	}
}

// FuzzWALReplay frames an arbitrary payload with a valid length and crc
// between two good groups and opens the log: the crc gate would stop a
// fuzzer before the record decoder otherwise. Replay never panics; a
// malformed record stops it, so neither that record nor anything after
// it is applied; a well-formed one is applied whole or the open fails.
func FuzzWALReplay(f *testing.F) {
	for _, seed := range walSeeds() {
		f.Add(seed)
	}
	before := groupPayload(true, 1,
		insertPayload("fz", RID{}, []byte("first")),
		metaSetPayload("fuzz/before", []byte("1")))
	after := groupPayload(true, 0, metaSetPayload("fuzz/after", []byte("1")))
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The model: what replaying before, then payload if it is
		// well-formed, then after, leaves in the heaps and the meta map.
		entries, _, _ := decodeGroup(before)
		subs, _, err := decodeGroup(payload)
		wellFormed := err == nil
		if wellFormed {
			entries = append(entries, subs...)
		}
		heaps := map[string]map[RID]string{}
		meta := map[string]string{}
		for _, e := range entries {
			switch e.op {
			case opInsert:
				if e.rid.Page > 64 {
					t.Skip("a replayed insert extends its heap to the page it names")
				}
				if heaps[e.heap] == nil {
					heaps[e.heap] = map[RID]string{}
				}
				heaps[e.heap][e.rid] = string(e.rec)
			case opDelete:
				if heaps[e.heap] == nil {
					heaps[e.heap] = map[RID]string{}
				}
				delete(heaps[e.heap], e.rid)
			case opMetaSet:
				meta[e.key] = string(e.val)
			}
		}
		if wellFormed {
			meta["fuzz/after"] = "1"
		}
		delete(meta, epochKey)

		dir := t.TempDir()
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		log := frameRecord(frameRecord(frameRecord(nil, before), payload), after)
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, Options{NoSync: true})
		if err != nil {
			if !wellFormed {
				t.Fatalf("a malformed record failed the open instead of ending replay: %v", err)
			}
			return // a well-formed record that cannot apply: a replay conflict, a bad heap name
		}
		defer s.Close()
		got := map[string]string{}
		for _, k := range s.MetaKeys("") {
			if v, ok := s.MetaGet(k); ok && k != epochKey {
				got[k] = string(v)
			}
		}
		if !maps.Equal(got, meta) {
			t.Fatalf("meta after replay = %q, want %q (well-formed %v)", got, meta, wellFormed)
		}
		var files []string
		for name := range heaps {
			files = append(files, "heap_"+name+".db")
		}
		onDisk, err := filepath.Glob(filepath.Join(dir, "heap_*.db"))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range onDisk {
			onDisk[i] = filepath.Base(p)
		}
		slices.Sort(files)
		if !slices.Equal(onDisk, files) {
			t.Fatalf("heaps after replay = %v, want %v", onDisk, files)
		}
		for name, want := range heaps {
			recs := map[RID]string{}
			if err := s.Scan(name, func(rid RID, rec []byte) bool {
				recs[rid] = string(rec)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(recs, want) {
				t.Fatalf("heap %q after replay = %q, want %q", name, recs, want)
			}
		}
	})
}
