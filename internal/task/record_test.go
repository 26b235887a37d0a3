package task

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"gaea/internal/object"
)

// TestTaskRecordBytes pins the stored bytes of the task a load writes: a
// one-run load group in the range a benchmark ingest lives in.
func TestTaskRecordBytes(t *testing.T) {
	load := &Task{
		ID: 1<<21 - 1, Process: "data_load", User: "bench", OutClass: "gauge", Note: "ingest",
		Output: 1<<21 - 8, OutputRuns: []Run{{1<<21 - 8, 8}},
	}
	if n := len(appendTask(nil, load)); n > 48 {
		t.Errorf("a one-run load task is stored in %d bytes, want at most 48", n)
	}
}

// taskSeedRecords builds one record per shape the decoder distinguishes.
func taskSeedRecords() [][]byte {
	load := &Task{ID: 7, Process: "data_load", User: "bench", OutClass: "gauge", Note: "ingest", Output: 100, OutputRuns: []Run{{100, 8}, {120, 3}}}
	derived := &Task{
		ID: 9, Process: "change_map", Version: 2, Micros: 5500, OutClass: "changemap",
		Inputs: map[string][]object.OID{"b": {4}, "a": {1, 2, 3}}, Output: 130,
	}
	single := &Task{ID: 8, Process: "data_load", OutClass: "gauge", Output: 41, Micros: -1}
	bin := appendTask(nil, load)
	return [][]byte{
		bin,                      // binary: a load group of two runs
		appendTask(nil, derived), // binary: a derivation with inputs
		appendTask(nil, single),  // binary: one output, no user or note
		[]byte(`{"id":1,"process":"data_load","version":0,"user":"relative","inputs":null,"output":1,"outputs":[[1,6]],"out_class":"rain","micros":0,"note":"gauge network"}`),
		[]byte(`{"id":2,"process":"copy_rain","version":1,"user":"relative","inputs":{"x":[3]},"output":7,"out_class":"rain_copy","micros":2}`),
		[]byte(`{"id":3,"process":"data_load","version":0,"inputs":null,"output":9,"outputs":[[9,2],[10,1]],"out_class":"rain","micros":0}`), // overlapping runs
		{},                                 // empty
		bin[:len(bin)-2],                   // truncated
		append(bin[:len(bin):len(bin)], 0), // trailing byte
		{0x02, 0},                          // unknown form
		binary.AppendUvarint([]byte{taskForm, 1, 0, 0, 0, 0, 0, 0}, math.MaxUint64),                  // inputs: a count far past the bytes
		append(binary.AppendUvarint([]byte{taskForm, 1, 0, 0, 0, 0, 0, 0, 0, 1}, math.MaxUint64), 1), // a run past the last OID
	}
}

// FuzzTaskRecordDecode drives arbitrary bytes through the task record
// decoder: it never panics, a binary record reads back as the task it
// encodes, and decode → encode → decode converges on one byte string.
// The decoder's allocations are bounded by its input (gaea-vet's
// wirebounds; TestTaskRecordDecodeBounded).
func FuzzTaskRecordDecode(f *testing.F) {
	for _, rec := range taskSeedRecords() {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		t1, err := decodeTask(rec)
		if err != nil {
			return
		}
		e1 := appendTask(nil, t1)
		t2, err := decodeTask(e1)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", e1, err)
		}
		if rec[0] != '{' && !reflect.DeepEqual(t1, t2) {
			t.Fatalf("binary record read as %+v, re-encoded reads as %+v", t1, t2)
		}
		if e2 := appendTask(nil, t2); !bytes.Equal(e1, e2) {
			t.Fatalf("did not converge:\n%x\n%x", e1, e2)
		}
	})
}

// TestTaskRecordDecodeBounded: records claiming counts far beyond their
// bytes fail without allocating for the claim.
func TestTaskRecordDecodeBounded(t *testing.T) {
	head := []byte{taskForm, 1, 0, 0, 0, 0, 0, 0}
	for _, rec := range [][]byte{
		binary.AppendUvarint(bytes.Clone(head), math.MaxUint64),                                    // inputs
		append(append(bytes.Clone(head), 1, 1, 'x'), binary.AppendUvarint(nil, math.MaxUint64)...), // one input's OIDs
		append(append(bytes.Clone(head), 0), binary.AppendUvarint(nil, math.MaxUint64)...),         // runs
		append(binary.AppendUvarint(append(bytes.Clone(head), 0, 2, 5, 1), math.MaxUint64), 1),     // a run past the last OID
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeTask(rec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%x decoded", rec)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1024 {
			t.Errorf("%x: decode allocated %d bytes", rec, n)
		}
	}
}

// TestTaskSeedCorpus verifies the committed seed corpus holds the seed
// records (and regenerates it under GAEA_REGEN_CORPUS=1).
func TestTaskSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTaskRecordDecode")
	seeds := taskSeedRecords()
	if os.Getenv("GAEA_REGEN_CORPUS") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("missing seed corpus entry %s (regenerate with GAEA_REGEN_CORPUS=1): %v", name, err)
		}
		if want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"; string(data) != want {
			t.Errorf("%s is not seed %d (regenerate with GAEA_REGEN_CORPUS=1)", name, i)
		}
	}
}
