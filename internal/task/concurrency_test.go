package task

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gaea/internal/object"
	"gaea/internal/sptemp"
)

// TestSingleFlightMemoisation issues the same instantiation from many
// goroutines at once: exactly one task must execute; the rest must be
// answered with the memoised task (run under -race in CI).
func TestSingleFlightMemoisation(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	in := map[string][]object.OID{"bands": scene}

	const n = 16
	var (
		wg       sync.WaitGroup
		start    = make(chan struct{})
		mu       sync.Mutex
		executed int
		ids      = make(map[ID]bool)
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tk, reused, err := e.exec.Run(context.Background(), "unsupervised_classification", in, RunOptions{})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if !reused {
				executed++
			}
			ids[tk.ID] = true
		}()
	}
	close(start)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if executed != 1 {
		t.Errorf("executed %d times, want exactly 1 (single-flight)", executed)
	}
	if len(ids) != 1 {
		t.Errorf("callers saw %d distinct tasks, want 1", len(ids))
	}
	if got := len(e.exec.All()); got != 1 {
		t.Errorf("task log has %d tasks, want 1", got)
	}
}

// TestSingleFlightDistinctInputsRunIndependently makes sure single-flight
// keys on the full instantiation: different inputs must not collapse.
func TestSingleFlightDistinctInputsRunIndependently(t *testing.T) {
	e := newEnv(t)
	scene86 := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	scene89 := insertScene(t, e, 3, sptemp.Date(1989, 1, 15), 1989)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, scene := range [][]object.OID{scene86, scene89} {
		wg.Add(1)
		go func(scene []object.OID) {
			defer wg.Done()
			_, _, err := e.exec.Run(context.Background(), "unsupervised_classification",
				map[string][]object.OID{"bands": scene}, RunOptions{})
			if err != nil {
				errs <- err
			}
		}(scene)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(e.exec.All()); got != 2 {
		t.Errorf("task log has %d tasks, want 2", got)
	}
}

// TestCancelledContextAbortsCompound: a cancelled context aborts a
// compound run cleanly — the error is the context's, and no step tasks
// are recorded.
func TestCancelledContextAbortsCompound(t *testing.T) {
	e := newEnv(t)
	scene86 := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	scene89 := insertScene(t, e, 3, sptemp.Date(1989, 1, 15), 1989)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.exec.RunCompound(ctx, "land_change_detection",
		map[string][]object.OID{"tm1": scene86, "tm2": scene89}, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := len(e.exec.All()); got != 0 {
		t.Errorf("cancelled compound recorded %d tasks, want 0", got)
	}
	// The engine stays usable after a cancellation.
	tasks, _, err := e.exec.RunCompound(context.Background(), "land_change_detection",
		map[string][]object.OID{"tm1": scene86, "tm2": scene89}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Errorf("post-cancel compound ran %d tasks, want 3", len(tasks))
	}
}

// TestCancelledContextAbortsRun covers the primitive path too.
func TestCancelledContextAbortsRun(t *testing.T) {
	e := newEnv(t)
	scene := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.exec.Run(ctx, "unsupervised_classification",
		map[string][]object.OID{"bands": scene}, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCompoundParallelStepsMatchSequential: the same compound run at
// parallelism 1 and 8 must produce identical step structure.
func TestCompoundParallelStepsMatchSequential(t *testing.T) {
	e := newEnv(t)
	scene86 := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	scene89 := insertScene(t, e, 3, sptemp.Date(1989, 1, 15), 1989)
	in := map[string][]object.OID{"tm1": scene86, "tm2": scene89}

	seqTasks, seqOut, err := e.exec.RunCompound(context.Background(), "land_change_detection", in, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A second, parallel run is fully memoised and returns the same tasks.
	parTasks, parOut, err := e.exec.RunCompound(context.Background(), "land_change_detection", in, RunOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if parOut != seqOut {
		t.Errorf("parallel output %d != sequential output %d", parOut, seqOut)
	}
	if len(parTasks) != len(seqTasks) {
		t.Fatalf("parallel ran %d tasks, sequential %d", len(parTasks), len(seqTasks))
	}
	for i := range parTasks {
		if parTasks[i].ID != seqTasks[i].ID {
			t.Errorf("step %d: parallel task %d != sequential task %d", i, parTasks[i].ID, seqTasks[i].ID)
		}
	}
	// And a cold parallel run on fresh inputs works end to end.
	scene91 := insertScene(t, e, 3, sptemp.Date(1991, 1, 15), 1991)
	tasks, out, err := e.exec.RunCompound(context.Background(), "land_change_detection",
		map[string][]object.OID{"tm1": scene89, "tm2": scene91}, RunOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 || out == 0 {
		t.Errorf("cold parallel compound: %d tasks, out=%d", len(tasks), out)
	}
	if tasks[2].Process != "change_map" {
		t.Errorf("final step = %s, want change_map (order preserved)", tasks[2].Process)
	}
}

// TestConcurrentCompoundsShareSteps: two goroutines running overlapping
// compounds concurrently must share the overlapping classification step.
func TestConcurrentCompoundsShareSteps(t *testing.T) {
	e := newEnv(t)
	scene86 := insertScene(t, e, 3, sptemp.Date(1986, 1, 15), 1986)
	scene89 := insertScene(t, e, 3, sptemp.Date(1989, 1, 15), 1989)
	in := map[string][]object.OID{"tm1": scene86, "tm2": scene89}

	const n = 8
	var wg sync.WaitGroup
	outs := make([]object.OID, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, out, err := e.exec.RunCompound(context.Background(), "land_change_detection", in, RunOptions{})
			outs[i], errs[i] = out, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("compound %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Errorf("compound %d produced output %d, want shared %d", i, outs[i], outs[0])
		}
	}
	// Exactly the three steps executed once each.
	if got := len(e.exec.All()); got != 3 {
		t.Errorf("task log has %d tasks, want 3 (steps shared via single-flight)", got)
	}
}

// TestLevels checks the topological staging used by the scheduler.
func TestLevels(t *testing.T) {
	cases := []struct {
		name string
		n    int
		deps map[int][]int
		want [][]int
	}{
		{"empty", 0, nil, [][]int{}},
		{"chain", 3, map[int][]int{1: {0}, 2: {1}}, [][]int{{0}, {1}, {2}}},
		{"diamond", 4, map[int][]int{1: {0}, 2: {0}, 3: {1, 2}}, [][]int{{0}, {1, 2}, {3}}},
		{"independent", 3, nil, [][]int{{0, 1, 2}}},
		// land_change_detection: two independent classifications, then the
		// change map.
		{"figure5", 3, map[int][]int{2: {0, 1}}, [][]int{{0, 1}, {2}}},
	}
	for _, tc := range cases {
		got := Levels(tc.n, func(i int) []int { return tc.deps[i] })
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: Levels = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestParallelPropagatesFirstError: a failing stage function cancels the
// rest and surfaces its error.
func TestParallelPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	fns := []func(context.Context) error{
		func(ctx context.Context) error { return nil },
		func(ctx context.Context) error { return boom },
		func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() },
	}
	if err := Parallel(context.Background(), 4, fns); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	// Sequential mode too.
	if err := Parallel(context.Background(), 1, fns[:2]); !errors.Is(err, boom) {
		t.Errorf("sequential err = %v, want boom", err)
	}
}

// TestConcurrentLoadsReopen commits loads of one class under one note
// from several goroutines at once, so each stages a delta against
// whichever load was published last, while others publish. After a
// reopen every task reads back as committed.
func TestConcurrentLoadsReopen(t *testing.T) {
	dir := t.TempDir()
	e := openEnv(t, dir, false)
	const workers, loads = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loads; i++ {
				first := object.OID(1_000 * (w*loads + i + 1))
				tasks := e.exec.StageExternal("data_load", nil, []object.OID{first, first + 1, first + 2}, "landsat_tm", RunOptions{User: "u", Note: "tape"})
				if _, err := e.exec.Apply(object.BatchOps{}, tasks); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	before := e.exec.All()
	deltas := 0
	for _, tk := range before {
		if tk.base != 0 {
			deltas++
		}
	}
	// Only a worker's first load can find no load published before it.
	if want := workers * (loads - 1); deltas < want {
		t.Errorf("%d of %d loads were staged as deltas, want at least %d", deltas, len(before), want)
	}
	if err := e.st.Close(); err != nil {
		t.Fatal(err)
	}
	if after := openEnv(t, dir, true).exec.All(); !reflect.DeepEqual(before, after) {
		t.Errorf("%d tasks read back differently after a reopen", len(after))
	}
}
