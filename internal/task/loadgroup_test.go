package task

import (
	"errors"
	"testing"

	"gaea/internal/object"
	"gaea/internal/storage"
)

// commitStaged commits staged task records the way a session does — in
// one object-store batch that pins the task sequence — and publishes them.
func commitStaged(t *testing.T, e *env, tasks []*Task) {
	t.Helper()
	if _, err := e.exec.Apply(object.BatchOps{}, tasks); err != nil {
		t.Fatal(err)
	}
}

// stored is the record Apply writes for staged task tk.
func stored(e *env, tk *Task) []byte {
	return appendTask(nil, tk, e.exec.byID[tk.base])
}

// commitExternal stages and commits the task of an external derivation
// of one output, and returns it.
func commitExternal(t *testing.T, e *env, proc string, inputs map[string][]object.OID, output object.OID, opts RunOptions) *Task {
	t.Helper()
	tasks := e.exec.StageExternal(proc, inputs, []object.OID{output}, "landsat_tm", opts)
	commitStaged(t, e, tasks)
	return tasks[0]
}

// TestJSONTaskRecordRefused: a task log holding a record in the JSON
// form every record had before the binary ones — here a single-output
// load, beside a binary record of the same load — fails to open with
// ErrCorruptLog.
func TestJSONTaskRecordRefused(t *testing.T) {
	e := openEnv(t, t.TempDir(), true)
	commitExternal(t, e, "data_load", nil, 42, RunOptions{User: "u"})
	legacy := []byte(`{"id":2,"process":"data_load","version":0,"user":"u","inputs":null,"output":41,"out_class":"landsat_tm","micros":0,"note":"n"}`)
	b := e.st.NewBatch()
	b.Insert(tasksHeap, legacy)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenExecutor(e.st, e.cat, e.reg, e.obj, e.mgr); !errors.Is(err, ErrCorruptLog) {
		t.Errorf("OpenExecutor over a JSON record: %v, want ErrCorruptLog", err)
	}
}

// TestStageExternalScatteredOutputsSplit: 50,000 outputs with a gap after
// each — 50,000 runs, far more than one heap record holds — are split
// over several tasks that together list every output exactly once, and
// the split survives a reopen. A second such set, staged under the same
// note once the first is published, is split the same way into deltas.
func TestStageExternalScatteredOutputsSplit(t *testing.T) {
	dir := t.TempDir()
	e := openEnv(t, dir, false)
	const n = 50_000
	sets := make([][]object.OID, 2)
	staged := 0
	for s := range sets {
		outputs := make([]object.OID, n)
		for i := range outputs {
			outputs[i] = object.OID(1_000_000*(s+1) + 2*i)
		}
		sets[s] = outputs
		tasks := e.exec.StageExternal("data_load", nil, outputs, "landsat_tm", RunOptions{Note: "scattered"})
		if len(tasks) < 2 {
			t.Fatalf("%d runs staged as %d task", n, len(tasks))
		}
		next := 0
		for _, tk := range tasks {
			if delta := tk.base != 0; delta != (s > 0) {
				t.Fatalf("set %d: task %d is a delta: %v", s, tk.ID, delta)
			}
			if n := len(stored(e, tk)); n > storage.MaxRecordLen {
				t.Fatalf("task %d: record of %d bytes exceeds a page", tk.ID, n)
			}
			for _, out := range tk.Outputs() {
				if next >= n || out != outputs[next] {
					t.Fatalf("task %d lists %d out of turn", tk.ID, out)
				}
				next++
			}
		}
		if next != n {
			t.Fatalf("tasks list %d outputs, want %d", next, n)
		}
		commitStaged(t, e, tasks)
		staged += len(tasks)
	}
	check := func(e *env) {
		t.Helper()
		for _, outputs := range sets {
			for _, i := range []int{0, 1, n / 2, n - 1} {
				prod, ok := e.exec.Producer(outputs[i])
				if !ok || prod.Note != "scattered" {
					t.Fatalf("producer of output %d = %+v, %v", i, prod, ok)
				}
				if _, ok := e.exec.Producer(outputs[i] + 1); ok {
					t.Errorf("the gap after output %d has a producer", i)
				}
			}
		}
		if got := len(e.exec.All()); got != staged {
			t.Errorf("%d tasks in the log, want %d", got, staged)
		}
	}
	check(e)
	if err := e.st.Close(); err != nil {
		t.Fatal(err)
	}
	check(openEnv(t, dir, true))
}

// TestLoadGroupLineageWalks: ancestors and descendants cross a load
// group through the member that was actually used, not its siblings.
func TestLoadGroupLineageWalks(t *testing.T) {
	e := newEnv(t)
	group := []object.OID{10, 11, 12, 13}
	tasks := e.exec.StageExternal("data_load", nil, group, "landsat_tm", RunOptions{})
	commitStaged(t, e, tasks)
	if n := len(stored(e, tasks[0])); len(tasks) != 1 || n > 160 {
		t.Fatalf("contiguous group staged as %d tasks, first record %d bytes", len(tasks), n)
	}
	commitExternal(t, e, "interpolation", map[string][]object.OID{"src": {12}}, 99, RunOptions{})
	if got := e.exec.Descendants(12); len(got) != 1 || got[0] != 99 {
		t.Errorf("descendants(12) = %v, want [99]", got)
	}
	if got := e.exec.Descendants(11); len(got) != 0 {
		t.Errorf("descendants(11) = %v, want none", got)
	}
	if got := e.exec.Ancestors(99); len(got) != 1 || got[0] != 12 {
		t.Errorf("ancestors(99) = %v, want [12]", got)
	}
	// A later task over one member (a re-load, a refresh) is that member's
	// newest producer; its siblings keep the group's.
	ext := commitExternal(t, e, "data_load", nil, 11, RunOptions{Note: "reloaded"})
	if prod, _ := e.exec.Producer(11); prod.ID != ext.ID {
		t.Errorf("producer(11) = task %d, want the newer task %d", prod.ID, ext.ID)
	}
	if prod, _ := e.exec.Producer(10); prod.ID != tasks[0].ID {
		t.Errorf("producer(10) = task %d, want the group's %d", prod.ID, tasks[0].ID)
	}
	// Version-0 tasks share one memo key per process; none may be entered.
	if len(e.exec.memo) != 0 {
		t.Errorf("external derivations entered the memo: %v", e.exec.memo)
	}
}
