package task

// Task records. A task is stored as one record of the "tasks" heap in
// one of two forms, a full record or a delta against an earlier task;
// the log reads no other. The record is never logged by itself:
// Executor.Apply commits it in the same storage batch as the objects the
// task generated, so a crash keeps both or neither.
//
// Both forms lead with a form byte; their layouts are README's "On-disk
// format 6", *Task record*. The full form stands alone. The delta form
// names an earlier task as its base and stores only the fields that
// differ from it, under a mask: a field whose bit is clear is the
// base's, and a mask bit this decoder does not know is corruption. The
// executor writes a delta for two kinds of task: a refresh, against the
// task it recomputes (its note, when given none, is "refresh of task
// <base>", stored as one mask bit); and an external derivation, against
// the newest published one with the same process, user, out-class and
// note.
//
// A base is always a committed task and tasks are never deleted, so a
// log holds the base of every delta in it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"gaea/internal/object"
)

const (
	// taskForm leads a full binary task record, deltaForm a delta record.
	taskForm  = 0x01
	deltaForm = 0x02
	// recordCap sizes the buffer a task record is encoded into: a load
	// or a one-input derivation under the usual names fits at once.
	recordCap = 64
)

// The fields a delta record stores, as bits of its mask. The bits the
// executor's deltas set stay below 1<<7, so the mask is one byte.
const (
	hasUser     = 1 << iota
	hasOutClass // out_class
	hasNote     // a literal note
	refreshNote // the note "refresh of task <base>"
	hasInputs
	hasMicros
	hasOutputs
	hasProcess  // process and version
	knownFields = 1<<iota - 1
)

var errTaskTruncated = errors.New("task: truncated record")

// refreshPrefix is the note prefix of a refresh that was given no note.
const refreshPrefix = "refresh of task "

// refreshNoteOf is the note of a refresh of task base that was given
// none.
func refreshNoteOf(base ID) string {
	return refreshPrefix + strconv.FormatUint(uint64(base), 10)
}

// isRefreshNoteOf reports whether note is refreshNoteOf(base), without
// building it: every refresh's record is encoded twice.
func isRefreshNoteOf(note string, base ID) bool {
	var b [20]byte
	id, ok := strings.CutPrefix(note, refreshPrefix)
	return ok && id == string(strconv.AppendUint(b[:0], uint64(base), 10))
}

// deltaFields are the fields a delta record may store, in record order:
// each one's mask bit, whether t stores it against base, and how it is
// written and read.
var deltaFields = [...]struct {
	bit    uint64
	stores func(t, base *Task) bool
	put    func(buf []byte, t *Task) []byte
	get    func(d *decoder, t *Task)
}{
	{hasProcess,
		func(t, b *Task) bool { return t.Process != b.Process || t.Version != b.Version },
		func(buf []byte, t *Task) []byte {
			return binary.AppendVarint(appendStr(buf, t.Process), int64(t.Version))
		},
		func(d *decoder, t *Task) { t.Process, t.Version = d.str(), int(d.varint()) }},
	{hasUser,
		func(t, b *Task) bool { return t.User != b.User },
		func(buf []byte, t *Task) []byte { return appendStr(buf, t.User) },
		func(d *decoder, t *Task) { t.User = d.str() }},
	{hasOutClass,
		func(t, b *Task) bool { return t.OutClass != b.OutClass },
		func(buf []byte, t *Task) []byte { return appendStr(buf, t.OutClass) },
		func(d *decoder, t *Task) { t.OutClass = d.str() }},
	{hasNote,
		func(t, b *Task) bool { return t.Note != b.Note && !isRefreshNoteOf(t.Note, b.ID) },
		func(buf []byte, t *Task) []byte { return appendStr(buf, t.Note) },
		func(d *decoder, t *Task) { t.Note = d.str() }},
	{refreshNote,
		func(t, b *Task) bool { return t.Note != b.Note && isRefreshNoteOf(t.Note, b.ID) },
		func(buf []byte, _ *Task) []byte { return buf },
		func(_ *decoder, t *Task) { t.Note = refreshNoteOf(t.base) }},
	{hasInputs,
		func(t, b *Task) bool { return !maps.EqualFunc(t.Inputs, b.Inputs, slices.Equal) },
		func(buf []byte, t *Task) []byte { return appendInputs(buf, t.Inputs) },
		func(d *decoder, t *Task) { t.Inputs = d.inputs() }},
	{hasMicros,
		func(t, b *Task) bool { return t.Micros != b.Micros },
		func(buf []byte, t *Task) []byte { return binary.AppendVarint(buf, t.Micros) },
		func(d *decoder, t *Task) { t.Micros = d.varint() }},
	{hasOutputs,
		func(t, b *Task) bool { return t.Output != b.Output || !slices.Equal(t.OutputRuns, b.OutputRuns) },
		func(buf []byte, t *Task) []byte { return appendRuns(buf, t.runs()) },
		(*decoder).outputs},
}

// appendTask appends t's record: a delta against base, or the full
// binary form when base is nil.
func appendTask(buf []byte, t, base *Task) []byte {
	if base == nil {
		buf = append(buf, taskForm)
		buf = binary.AppendUvarint(buf, uint64(t.ID))
		buf = binary.AppendVarint(buf, int64(t.Version))
		buf = binary.AppendVarint(buf, t.Micros)
		for _, s := range [...]string{t.Process, t.User, t.OutClass, t.Note} {
			buf = appendStr(buf, s)
		}
		return appendRuns(appendInputs(buf, t.Inputs), t.runs())
	}
	var mask uint64
	for _, f := range deltaFields {
		if f.stores(t, base) {
			mask |= f.bit
		}
	}
	buf = append(buf, deltaForm)
	buf = binary.AppendUvarint(buf, uint64(t.ID))
	buf = binary.AppendUvarint(buf, uint64(t.ID-base.ID))
	buf = binary.AppendUvarint(buf, mask)
	for _, f := range deltaFields {
		if mask&f.bit != 0 {
			buf = f.put(buf, t)
		}
	}
	return buf
}

// appendInputs appends the inputs part of a binary record.
func appendInputs(buf []byte, inputs map[string][]object.OID) []byte {
	names := slices.Sorted(maps.Keys(inputs))
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = appendStr(buf, n)
		oids := inputs[n]
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

// decodeTask reads a task record of either form. A delta record is laid
// over base, the task it names (deltaIDs); a full record ignores base.
func decodeTask(rec []byte, base *Task) (*Task, error) {
	d := decoder{buf: rec}
	switch form := d.u8(); {
	case d.err != nil:
		return nil, d.err
	case form == deltaForm:
		return d.delta(base)
	case form != taskForm:
		return nil, fmt.Errorf("task: unknown record form %#x", form)
	}
	t := &Task{ID: ID(d.uvarint())}
	t.Version = int(d.varint())
	t.Micros = d.varint()
	t.Process, t.User, t.OutClass, t.Note = d.str(), d.str(), d.str(), d.str()
	t.Inputs = d.inputs()
	d.outputs(t)
	return t, d.end(t.ID)
}

// deltaIDs reads the ID and the base of a delta record; ok is false for
// a record of another form.
func deltaIDs(rec []byte) (id, base ID, ok bool, err error) {
	if len(rec) == 0 || rec[0] != deltaForm {
		return 0, 0, false, nil
	}
	d := decoder{buf: rec[1:]}
	id, base, _, err = d.deltaHead()
	return id, base, true, err
}

// deltaHead reads a delta record's ID, base and field mask.
func (d *decoder) deltaHead() (id, base ID, mask uint64, err error) {
	n, back, mask := d.uvarint(), d.uvarint(), d.uvarint()
	if d.err != nil {
		return 0, 0, 0, d.err
	}
	if back == 0 || back > n {
		return 0, 0, 0, fmt.Errorf("task %d: base lies %d tasks back, not below it", n, back)
	}
	if mask&^knownFields != 0 || mask&(hasNote|refreshNote) == hasNote|refreshNote {
		return 0, 0, 0, fmt.Errorf("task %d: unknown field mask %#x", n, mask)
	}
	return ID(n), ID(n - back), mask, nil
}

// delta reads the rest of a delta record over base.
func (d *decoder) delta(base *Task) (*Task, error) {
	id, baseID, mask, err := d.deltaHead()
	if err != nil {
		return nil, err
	}
	if base == nil || base.ID != baseID {
		return nil, fmt.Errorf("task %d: a delta against task %d read without it", id, baseID)
	}
	t := *base
	t.ID, t.base = id, baseID
	for _, f := range deltaFields {
		if mask&f.bit != 0 {
			f.get(d, &t)
		}
	}
	return &t, d.end(t.ID)
}

// inputs reads the inputs part of a binary record: nil for none.
func (d *decoder) inputs() map[string][]object.OID {
	n := d.uvarint()
	if n == 0 || d.err != nil {
		return nil
	}
	inputs := make(map[string][]object.OID, d.clamp(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		name := d.str()
		var oids []object.OID
		if m := d.uvarint(); m > 0 {
			oids = make([]object.OID, 0, d.clamp(m))
			for j := uint64(0); j < m && d.err == nil; j++ {
				oids = append(oids, object.OID(d.uvarint()))
			}
		}
		inputs[name] = oids
	}
	return inputs
}

// outputs reads the outputs part of a binary record into t.
func (d *decoder) outputs(t *Task) {
	n := d.uvarint()
	if n == 0 && d.err == nil {
		d.err, d.buf = fmt.Errorf("task %d: no outputs", t.ID), nil
	}
	runs := make([]Run, 0, d.clamp(n))
	var end uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		gap, count := d.uvarint(), d.uvarint()
		switch {
		case d.err != nil:
		case gap > math.MaxUint64-end || count == 0 || count > math.MaxUint64-end-gap:
			d.err, d.buf = fmt.Errorf("task %d: output run %d is empty or past the last OID", t.ID, i), nil
		default:
			runs = append(runs, Run{end + gap, count})
			end += gap + count
		}
	}
	if d.err == nil {
		t.setOutputs(runs)
	}
}

// end reports an error met reading task id's record, or bytes after it.
func (d *decoder) end(id ID) error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) > 0 {
		return fmt.Errorf("task %d: %d bytes after the record", id, len(d.buf))
	}
	return nil
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
