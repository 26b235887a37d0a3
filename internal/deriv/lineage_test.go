package deriv

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"gaea/internal/object"
	"gaea/internal/task"
	"gaea/internal/value"
)

// TestStaleSetReopenEquivalence runs a seeded schedule of sessions
// (updates, deletes, updates of derived objects), runs, compounds,
// refreshes and cost-model drops under each policy, closing and
// reopening every few steps. The stale set a reopen judges from lineage
// must equal the one memory held before the close — Stale() and
// IsStaleAt at the current epoch — and no step may write a meta key
// under deriv/.
func TestStaleSetReopenEquivalence(t *testing.T) {
	for _, policy := range []Policy{Lazy, Eager, Manual} {
		t.Run(string(policy), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
					runStaleSchedule(t, policy, seed)
				})
			}
		})
	}
}

// staleSchedule is one run of TestStaleSetReopenEquivalence.
type staleSchedule struct {
	t      *testing.T
	w      *world
	policy Policy
	rng    *rand.Rand
	// seen lists every OID the schedule created, by class.
	seen map[string][]object.OID
}

func runStaleSchedule(t *testing.T, policy Policy, seed uint64) {
	s := &staleSchedule{t: t, policy: policy, rng: rand.New(rand.NewPCG(seed, 53)), seen: map[string][]object.OID{}}
	s.w = newWorld(t, Config{Policy: policy})
	for i := 0; i < 3; i++ {
		s.seen["c0"] = append(s.seen["c0"], s.w.insertBase(t, float64(i)))
	}
	for step := 0; step < 60; step++ {
		// Under Eager the refresher may drop what it cannot refresh: let
		// it finish before picking the next step's objects.
		s.quiesce()
		switch op := s.rng.IntN(10); {
		case op == 0:
			s.seen["c0"] = append(s.seen["c0"], s.w.insertBase(t, float64(step)))
		case op <= 2:
			s.session(step, false)
		case op == 3:
			s.session(step, true)
		case op == 4:
			s.run("p1", map[string][]object.OID{"x": s.pick("c0")})
		case op == 5:
			s.run("p2", map[string][]object.OID{"x": s.pick("c1")})
		case op == 6:
			s.run("p3", map[string][]object.OID{"a": s.pick("c1"), "b": s.pick("c0")})
		case op == 7:
			s.compound()
		case op == 8:
			s.refresh()
		default:
			// Everything is cheaper to re-derive than to keep for one
			// session's sweep.
			s.w.mgr.cost = costModel{RecomputeMicros: recomputeMicros, DropMicros: 1 << 40, DropBytes: 1}
			s.session(step, false)
			s.w.mgr.cost = costModel{RecomputeMicros: recomputeMicros, DropMicros: dropMicros, DropBytes: dropBytes}
		}
		if step%5 == 4 {
			s.reopen()
		}
	}
}

// pick returns one live object of class, or none.
func (s *staleSchedule) pick(class string) []object.OID {
	var live []object.OID
	for _, oid := range s.seen[class] {
		if s.w.obj.Exists(oid) {
			live = append(live, oid)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return []object.OID{live[s.rng.IntN(len(live))]}
}

// session commits one batch — new values for one or two objects (a
// derived one now and then), or a delete — and sweeps it, as a kernel
// session does.
func (s *staleSchedule) session(step int, del bool) {
	t := s.t
	classes := []string{"c0", "c0", "c0", "c1", "c2"}
	target := s.pick(classes[s.rng.IntN(len(classes))])
	if len(target) == 0 {
		return
	}
	var ops object.BatchOps
	if del {
		ops.Deletes = target
	} else {
		if s.rng.IntN(2) == 0 {
			if other := s.pick("c0"); len(other) == 1 && other[0] != target[0] {
				target = append(target, other[0])
			}
		}
		for _, oid := range target {
			o, err := s.w.obj.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			o.Attrs["v"] = value.Float(float64(step))
			ops.Updates = append(ops.Updates, o)
		}
	}
	epoch, err := s.w.exec.Apply(ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	var updated []object.OID
	for _, o := range ops.Updates {
		updated = append(updated, o.OID)
	}
	if err := s.w.mgr.ObjectsChanged(updated, ops.Deletes, epoch); err != nil {
		t.Fatal(err)
	}
}

func (s *staleSchedule) run(proc string, inputs map[string][]object.OID) {
	for _, oids := range inputs {
		if len(oids) == 0 {
			return
		}
	}
	tk, _, err := s.w.exec.Run(context.Background(), proc, inputs, task.RunOptions{})
	if err != nil {
		s.t.Fatalf("run %s over %v: %v", proc, inputs, err)
	}
	s.note(tk)
}

func (s *staleSchedule) compound() {
	x := s.pick("c0")
	if len(x) == 0 {
		return
	}
	tasks, _, err := s.w.exec.RunCompound(context.Background(), "p12", map[string][]object.OID{"x": x}, task.RunOptions{})
	if err != nil {
		s.t.Fatal(err)
	}
	for _, tk := range tasks {
		s.note(tk)
	}
}

// note records a task's output among the objects seen.
func (s *staleSchedule) note(tk *task.Task) {
	if !slices.Contains(s.seen[tk.OutClass], tk.Output) {
		s.seen[tk.OutClass] = append(s.seen[tk.OutClass], tk.Output)
	}
}

// refresh brings one stale object, or all of them, up to date. A refresh
// whose recorded input was deleted cannot succeed; RefreshStale drops
// what it cannot refresh.
func (s *staleSchedule) refresh() {
	stale := s.w.mgr.Stale()
	if len(stale) > 0 && s.rng.IntN(2) == 0 {
		err := s.w.mgr.RefreshObject(context.Background(), stale[s.rng.IntN(len(stale))])
		if err != nil && !errors.Is(err, object.ErrNotFound) {
			s.t.Fatal(err)
		}
		return
	}
	if _, err := s.w.mgr.RefreshStale(context.Background()); err != nil {
		s.t.Fatal(err)
	}
}

// staleAt maps every object the schedule created to IsStaleAt at epoch.
func (s *staleSchedule) staleAt(epoch uint64) map[object.OID]bool {
	out := map[object.OID]bool{}
	for _, oids := range s.seen {
		for _, oid := range oids {
			out[oid] = s.w.mgr.IsStaleAt(oid, epoch)
		}
	}
	return out
}

// quiesce waits, under Eager, for the background refresher to drain the
// stale set.
func (s *staleSchedule) quiesce() {
	if s.policy != Eager {
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.w.mgr.Stale()) > 0 {
		if time.Now().After(deadline) {
			s.t.Fatalf("background refresher did not drain: stale=%v", s.w.mgr.Stale())
		}
		time.Sleep(time.Millisecond)
	}
}

// reopen closes the world and opens it again, and checks that the stale
// set the reopen judged from lineage is the one memory held.
func (s *staleSchedule) reopen() {
	t := s.t
	s.quiesce()
	if keys := s.w.st.MetaKeys("deriv/"); len(keys) > 0 {
		t.Fatalf("meta keys under deriv/: %v", keys)
	}
	epoch := s.w.obj.CurrentEpoch()
	stale, at := s.w.mgr.Stale(), s.staleAt(epoch)
	s.w.mgr.Close()
	if err := s.w.st.Close(); err != nil {
		t.Fatal(err)
	}
	s.w = openWorld(t, s.w.dir, Config{Policy: s.policy})
	if got := s.w.obj.CurrentEpoch(); got != epoch {
		t.Fatalf("epoch after reopen = %d, want %d", got, epoch)
	}
	if got := s.w.mgr.Stale(); !slices.Equal(got, stale) {
		t.Fatalf("stale after reopen = %v, before the close %v", got, stale)
	}
	if got := s.staleAt(epoch); !maps.Equal(got, at) {
		t.Fatalf("IsStaleAt(%d) after reopen = %v, before the close %v", epoch, got, at)
	}
	// Under Eager a reopen that judged something stale would have had it
	// refreshed or dropped by now, or soon.
	s.quiesce()
	if c := s.w.mgr.Counters(); c.Refreshes+c.Drops > 0 {
		t.Fatalf("the reopen judged objects stale that were fresh before the close: %+v", c)
	}
}
