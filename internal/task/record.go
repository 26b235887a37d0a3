package task

// Task records. A task is stored as one record of the "tasks" heap in
// one of two forms; the log is written in the binary one and read in
// either, so a directory written before it opens unchanged. The record
// is never logged by itself: Executor.Apply commits it in the same
// storage batch as the objects the task generated, so a crash keeps both
// or neither.
//
// The binary form is what the executor writes: a leading form byte, then
// numbers as uvarints (zig-zag varints where they are signed) and
// strings as uvarint length + bytes.
//
//	form u8 (0x01, never the '{' a JSON record starts with)
//	id uvarint, version varint, micros varint
//	process, user, out_class, note: uvarint length + bytes each
//	inputs: uvarint count, then per argument in ascending name order:
//	        name (uvarint length + bytes), uvarint count, the OIDs as
//	        uvarints
//	outputs: uvarint run count (at least 1), then per run, ascending:
//	        uvarint first, less the end of the run before it (0 for the
//	        first run), and uvarint count (at least 1)
//
// A single-output task is one run of one. A one-run load task takes
// about 40 bytes.
//
// The JSON form is the Task struct under its json tags; the executor
// wrote it before the binary form existed.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"gaea/internal/object"
)

const (
	// taskForm leads a binary task record.
	taskForm = 0x01
	// recordCap sizes the buffer a task record is encoded into: a load
	// or a one-input derivation under the usual names fits at once.
	recordCap = 64
)

var errTaskTruncated = errors.New("task: truncated record")

// appendTask appends t's binary record.
func appendTask(buf []byte, t *Task) []byte {
	runs := t.OutputRuns
	if len(runs) == 0 {
		runs = []Run{{uint64(t.Output), 1}}
	}
	return appendRuns(appendTaskHead(buf, t), runs)
}

// appendTaskHead appends all of t's binary record but its outputs.
func appendTaskHead(buf []byte, t *Task) []byte {
	buf = append(buf, taskForm)
	buf = binary.AppendUvarint(buf, uint64(t.ID))
	buf = binary.AppendVarint(buf, int64(t.Version))
	buf = binary.AppendVarint(buf, t.Micros)
	for _, s := range [...]string{t.Process, t.User, t.OutClass, t.Note} {
		buf = appendStr(buf, s)
	}
	names := make([]string, 0, len(t.Inputs))
	for n := range t.Inputs {
		names = append(names, n)
	}
	slices.Sort(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = appendStr(buf, n)
		oids := t.Inputs[n]
		buf = binary.AppendUvarint(buf, uint64(len(oids)))
		for _, oid := range oids {
			buf = binary.AppendUvarint(buf, uint64(oid))
		}
	}
	return buf
}

// appendRuns appends the outputs part of a binary record. runs must be
// ascending and disjoint.
func appendRuns(buf []byte, runs []Run) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	var end uint64
	for _, r := range runs {
		buf = binary.AppendUvarint(buf, r[0]-end)
		buf = binary.AppendUvarint(buf, r[1])
		end = r[0] + r[1]
	}
	return buf
}

// runSize is what run r adds to a binary record after a run ending at
// end.
func runSize(r Run, end uint64) int {
	var b [2 * binary.MaxVarintLen64]byte
	return len(binary.AppendUvarint(binary.AppendUvarint(b[:0], r[0]-end), r[1]))
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeTask reads a task record of either form.
func decodeTask(rec []byte) (*Task, error) {
	if len(rec) > 0 && rec[0] == '{' {
		var t Task
		if err := json.Unmarshal(rec, &t); err != nil {
			return nil, err
		}
		if len(t.OutputRuns) > 0 {
			var end uint64
			for _, r := range t.OutputRuns {
				if r[0] < end || r[1] == 0 || r[1] > math.MaxUint64-r[0] {
					return nil, fmt.Errorf("task %d: output runs %v are not ascending, disjoint and non-empty", t.ID, t.OutputRuns)
				}
				end = r[0] + r[1]
			}
			t.setOutputs(t.OutputRuns)
		}
		return &t, nil
	}
	d := decoder{buf: rec}
	if form := d.u8(); d.err == nil && form != taskForm {
		return nil, fmt.Errorf("task: unknown record form %#x", form)
	}
	t := &Task{ID: ID(d.uvarint())}
	t.Version = int(d.varint())
	t.Micros = d.varint()
	t.Process, t.User, t.OutClass, t.Note = d.str(), d.str(), d.str(), d.str()
	if n := d.uvarint(); n > 0 && d.err == nil {
		t.Inputs = make(map[string][]object.OID, d.clamp(n))
		for i := uint64(0); i < n && d.err == nil; i++ {
			name := d.str()
			var oids []object.OID
			if m := d.uvarint(); m > 0 {
				oids = make([]object.OID, 0, d.clamp(m))
				for j := uint64(0); j < m && d.err == nil; j++ {
					oids = append(oids, object.OID(d.uvarint()))
				}
			}
			t.Inputs[name] = oids
		}
	}
	n := d.uvarint()
	if n == 0 && d.err == nil {
		return nil, fmt.Errorf("task %d: no outputs", t.ID)
	}
	runs := make([]Run, 0, d.clamp(n))
	var end uint64
	for i := uint64(0); i < n; i++ {
		gap, count := d.uvarint(), d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if gap > math.MaxUint64-end || count == 0 || count > math.MaxUint64-end-gap {
			return nil, fmt.Errorf("task %d: output run %d is empty or past the last OID", t.ID, i)
		}
		runs = append(runs, Run{end + gap, count})
		end += gap + count
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) > 0 {
		return nil, fmt.Errorf("task %d: %d bytes after the record", t.ID, len(d.buf))
	}
	t.setOutputs(runs)
	return t, nil
}

// decoder is a cursor over a binary task record that keeps the first
// error; after it every read answers zero.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() { d.err, d.buf = errTaskTruncated, nil }

func (d *decoder) u8() byte {
	if len(d.buf) == 0 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// clamp bounds a decoded element count by the bytes left: every element
// takes at least one, so a larger count is corruption and must not size
// an allocation.
func (d *decoder) clamp(n uint64) int {
	return int(min(n, uint64(len(d.buf))))
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}
