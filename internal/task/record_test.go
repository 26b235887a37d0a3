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

// TestTaskRecordBytes pins the stored bytes of the records the executor
// writes most, at IDs and OIDs near 2²¹, the range a benchmark ingest
// lives in: the full record of a one-run load group, the delta of the
// next load of the same class under the same note, and the delta of a
// refresh of a three-input derivation.
func TestTaskRecordBytes(t *testing.T) {
	load := &Task{
		ID: 1<<21 - 1, Process: "data_load", User: "bench", OutClass: "gauge", Note: "ingest",
		Output: 1<<21 - 8, OutputRuns: []Run{{1<<21 - 8, 8}},
	}
	if n := len(appendTask(nil, load, nil)); n > 48 {
		t.Errorf("a one-run load task is stored in %d bytes, want at most 48", n)
	}
	next := *load
	next.ID, next.base = 1<<21+3, load.ID
	next.Output, next.OutputRuns = 1<<21, []Run{{1 << 21, 8}}
	derived := &Task{
		ID: 1<<21 - 2, Process: "unsupervised_classification", Version: 1, User: "bench",
		OutClass: "landcover", Note: "refresh of task 2097140", Micros: 2_500,
		Inputs: map[string][]object.OID{"bands": {1<<21 - 90, 1<<21 - 89, 1<<21 - 88}}, Output: 1<<21 - 60,
	}
	refresh := *derived
	refresh.ID, refresh.base = 1<<21+5, derived.ID
	refresh.Note, refresh.Micros = refreshNoteOf(derived.ID), 123_456
	for _, c := range []struct {
		what       string
		t, base    *Task
		full, most int
	}{
		{"the next load of the group's class and note", &next, load, 0, 16},
		{"a refresh of a three-input derivation", &refresh, derived, 80, 12},
	} {
		rec := appendTask(nil, c.t, c.base)
		if len(rec) > c.most {
			t.Errorf("%s is stored in %d bytes, want at most %d", c.what, len(rec), c.most)
		}
		if n := len(appendTask(nil, c.t, nil)); n < c.full {
			t.Errorf("%s takes %d bytes as a full record, want at least %d", c.what, n, c.full)
		}
		if got, err := decodeTask(rec, c.base); err != nil || !reflect.DeepEqual(got, c.t) {
			t.Errorf("%s reads as %+v, %v, want %+v", c.what, got, err, c.t)
		}
	}
}

// fuzzBase is the task a lone delta record is laid over, renumbered to
// the base ID the record names.
func fuzzBase() *Task {
	return &Task{
		ID: 9, Process: "change_map", Version: 2, Micros: 5500, OutClass: "changemap", Note: "step out of lcd",
		Inputs: map[string][]object.OID{"b": {4}, "a": {1, 2, 3}}, Output: 130,
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
	bin := appendTask(nil, load, nil)
	refresh := *derived
	refresh.ID, refresh.Note, refresh.Micros = 12, refreshNoteOf(derived.ID), 4800
	reload := *load
	reload.ID, reload.Output, reload.OutputRuns = 10, 140, []Run{{140, 8}}
	other := &Task{
		ID: 11, Process: "temporal_interpolation", User: "analyst", OutClass: "landsat_tm", Note: "gap fill",
		Inputs: map[string][]object.OID{"src": {100, 101}}, Output: 150, Micros: 70,
	}
	return [][]byte{
		bin,                           // binary: a load group of two runs
		appendTask(nil, derived, nil), // binary: a derivation with inputs
		appendTask(nil, single, nil),  // binary: one output, no user or note
		// Refused: the JSON form of earlier logs, a load group, a
		// derivation, and a load group with overlapping runs.
		[]byte(`{"id":1,"process":"data_load","version":0,"user":"relative","inputs":null,"output":1,"outputs":[[1,6]],"out_class":"rain","micros":0,"note":"gauge network"}`),
		[]byte(`{"id":2,"process":"copy_rain","version":1,"user":"relative","inputs":{"x":[3]},"output":7,"out_class":"rain_copy","micros":2}`),
		[]byte(`{"id":3,"process":"data_load","version":0,"inputs":null,"output":9,"outputs":[[9,2],[10,1]],"out_class":"rain","micros":0}`),
		{},                                 // empty
		bin[:len(bin)-2],                   // truncated
		append(bin[:len(bin):len(bin)], 0), // trailing byte
		{0x03, 0},                          // unknown form
		binary.AppendUvarint([]byte{taskForm, 1, 0, 0, 0, 0, 0, 0}, math.MaxUint64),                  // inputs: a count far past the bytes
		append(binary.AppendUvarint([]byte{taskForm, 1, 0, 0, 0, 0, 0, 0, 0, 1}, math.MaxUint64), 1), // a run past the last OID
		appendTask(nil, &refresh, derived),                                                           // delta: a refresh, micros and the default note
		appendTask(nil, &reload, load),                                                               // delta: the next load group, outputs only
		appendTask(nil, other, derived),                                                              // delta: every field
		{deltaForm, 5, 0, 0},                                                                         // delta: its own base
		{deltaForm, 5, 6, 0},                                                                         // delta: a base below task 0
		{deltaForm, 5, 1, 0x80, 0x02},                                                                // delta: an unknown mask bit
		{deltaForm, 5, 1, hasNote | refreshNote, 0},                                                  // delta: two notes
	}
}

// FuzzTaskRecordDecode drives arbitrary bytes through the task record
// decoder: it never panics, it reads only the full and the delta form, a
// record reads back as the task it encodes, and decode → encode → decode
// converges on one byte string. A delta record is laid over fuzzBase
// first and re-encoded against it.
// The decoder's allocations are bounded by its input (gaea-vet's
// wirebounds; TestTaskRecordDecodeBounded).
func FuzzTaskRecordDecode(f *testing.F) {
	for _, rec := range taskSeedRecords() {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		_, baseID, isDelta, err := deltaIDs(rec)
		if err != nil {
			return
		}
		var base *Task
		if isDelta {
			base = fuzzBase()
			base.ID = baseID
		}
		t1, err := decodeTask(rec, base)
		if err != nil {
			return
		}
		if rec[0] != taskForm && rec[0] != deltaForm {
			t.Fatalf("%x decoded in form %#x", rec, rec[0])
		}
		e1 := appendTask(nil, t1, base)
		if _, _, isDelta2, _ := deltaIDs(e1); isDelta2 != isDelta {
			t.Fatalf("%x re-encoded in another form: %x", rec, e1)
		}
		t2, err := decodeTask(e1, base)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", e1, err)
		}
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("record read as %+v, re-encoded reads as %+v", t1, t2)
		}
		if e2 := appendTask(nil, t2, base); !bytes.Equal(e1, e2) {
			t.Fatalf("did not converge:\n%x\n%x", e1, e2)
		}
	})
}

// TestTaskRecordDecodeBounded: records claiming counts far beyond their
// bytes fail without allocating for the claim.
func TestTaskRecordDecodeBounded(t *testing.T) {
	head := []byte{taskForm, 1, 0, 0, 0, 0, 0, 0}
	delta := func(mask byte) []byte { return []byte{deltaForm, 9, 1, mask} }
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	base := fuzzBase()
	base.ID = 8 // the base the delta records name
	for _, rec := range [][]byte{
		binary.AppendUvarint(bytes.Clone(head), math.MaxUint64),                                    // inputs
		append(append(bytes.Clone(head), 1, 1, 'x'), binary.AppendUvarint(nil, math.MaxUint64)...), // one input's OIDs
		append(append(bytes.Clone(head), 0), binary.AppendUvarint(nil, math.MaxUint64)...),         // runs
		append(binary.AppendUvarint(append(bytes.Clone(head), 0, 2, 5, 1), math.MaxUint64), 1),     // a run past the last OID
		append(delta(hasInputs), huge...),                                                          // a delta's inputs
		append(append(delta(hasInputs), 1, 1, 'x'), huge...),                                       // a delta's input OIDs
		append(delta(hasOutputs), huge...),                                                         // a delta's runs
		append(delta(hasUser), huge...),                                                            // a delta's user
		append(delta(hasNote), huge...),                                                            // a delta's note
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeTask(rec, base)
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
