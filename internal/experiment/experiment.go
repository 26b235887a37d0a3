// Package experiment implements the experiment manager of the high-level
// semantics layer (Figure 1; §2 goal 4): named experiments bundle the
// concepts studied, the processes applied, and the tasks performed, so an
// investigation can be reviewed, compared, and — the paper's headline
// capability — reproduced: "Experiments can be reproduced, allowing rapid
// and reliable confirmation of results" (§4.2).
package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"

	"gaea/internal/storage"
	"gaea/internal/task"
)

// Errors returned by the manager.
var (
	ErrExists   = errors.New("experiment: already defined")
	ErrNotFound = errors.New("experiment: not found")
	ErrBad      = errors.New("experiment: invalid definition")
)

// Experiment is one recorded investigation.
type Experiment struct {
	Name string `json:"name"`
	Doc  string `json:"doc,omitempty"`
	User string `json:"user,omitempty"`
	// Concepts names the concepts under study.
	Concepts []string `json:"concepts,omitempty"`
	// Params records the experiment-level parameters, for the record: the
	// paper stresses that the same method with different parameters is a
	// different process, and the experiment notes which was chosen.
	Params map[string]string `json:"params,omitempty"`
	// Tasks are the derivations performed under this experiment, in
	// execution order.
	Tasks []task.ID `json:"tasks,omitempty"`
}

var identRe = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9_ -]*$`)

// Manager persists experiments and drives reproduction.
type Manager struct {
	mu    sync.RWMutex
	store *storage.Store
	exec  *task.Executor
	exps  map[string]*Experiment
}

const expKeyPrefix = "experiment/"

// OpenManager loads experiments from the store.
func OpenManager(st *storage.Store, exec *task.Executor) (*Manager, error) {
	m := &Manager{store: st, exec: exec, exps: make(map[string]*Experiment)}
	for _, key := range st.MetaKeys(expKeyPrefix) {
		raw, ok := st.MetaGet(key)
		if !ok {
			continue
		}
		var e Experiment
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("experiment: corrupt definition at %s: %w", key, err)
		}
		m.exps[e.Name] = &e
	}
	return m, nil
}

// Create registers a new experiment.
//
//lint:gaea-allow deadcode ROADMAP item 3(f) builds on experiment reproduction
func (m *Manager) Create(e *Experiment) error {
	if !identRe.MatchString(e.Name) {
		return fmt.Errorf("%w: bad name %q", ErrBad, e.Name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.exps[e.Name]; dup {
		return fmt.Errorf("%w: %s", ErrExists, e.Name)
	}
	cp := *e
	cp.Tasks = append([]task.ID(nil), e.Tasks...)
	if err := m.persistLocked(&cp); err != nil {
		return err
	}
	m.exps[cp.Name] = &cp
	return nil
}

func (m *Manager) persistLocked(e *Experiment) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return m.store.MetaSet(expKeyPrefix+e.Name, raw)
}

// AttachTask records that a task was performed under an experiment.
//
//lint:gaea-allow deadcode ROADMAP item 3(f) builds on experiment reproduction
func (m *Manager) AttachTask(name string, id task.ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.exps[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if _, err := m.exec.Get(id); err != nil {
		return fmt.Errorf("%w: task %d unknown", ErrBad, id)
	}
	for _, existing := range e.Tasks {
		if existing == id {
			return nil // idempotent
		}
	}
	e.Tasks = append(e.Tasks, id)
	return m.persistLocked(e)
}

// Get returns an experiment by name.
func (m *Manager) Get(name string) (*Experiment, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.exps[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	cp := *e
	cp.Tasks = append([]task.ID(nil), e.Tasks...)
	return &cp, nil
}

// Names lists all experiments, sorted.
func (m *Manager) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.exps))
	for n := range m.exps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ReproductionReport summarises a reproduction run.
type ReproductionReport struct {
	Experiment string
	// PerTask lists one entry per original task, in order.
	PerTask []TaskReproduction
}

// TaskReproduction pairs an original task with its reproduction outcome.
type TaskReproduction struct {
	Original task.ID
	// Identical reports whether the reproduced output matched the original
	// attribute-for-attribute.
	Identical bool
	// Micros is the re-run's execution wall time in microseconds.
	Micros int64
	// Err records a per-task failure (the reproduction continues past it).
	Err string
}

// AllIdentical reports whether every task reproduced exactly.
//
//lint:gaea-allow deadcode ROADMAP item 3(f) builds on experiment reproduction
func (r *ReproductionReport) AllIdentical() bool {
	for _, tr := range r.PerTask {
		if tr.Err != "" || !tr.Identical {
			return false
		}
	}
	return len(r.PerTask) > 0
}

// Reproduce re-executes every task of an experiment against the recorded
// process versions and inputs, comparing outputs — external confirmation
// of the experiment's results. A reproduction records nothing, so the
// tasks are checked in parallel on the executor's worker pool; the report
// keeps their attach order.
//
//lint:gaea-allow deadcode ROADMAP item 3(f) builds on experiment reproduction
func (m *Manager) Reproduce(ctx context.Context, name string, opts task.RunOptions) (*ReproductionReport, error) {
	e, err := m.Get(name)
	if err != nil {
		return nil, err
	}
	report := &ReproductionReport{Experiment: name, PerTask: make([]TaskReproduction, len(e.Tasks))}
	fns := make([]func(context.Context) error, len(e.Tasks))
	for i, id := range e.Tasks {
		fns[i] = func(ctx context.Context) error {
			tr := &report.PerTask[i]
			tr.Original = id
			fresh, same, err := m.exec.Reproduce(ctx, id, opts)
			if err != nil {
				tr.Err = err.Error()
				return nil
			}
			tr.Identical, tr.Micros = same, fresh.Micros
			return nil
		}
	}
	if err := task.Parallel(ctx, m.exec.StageParallelism(opts), fns); err != nil {
		return nil, err
	}
	return report, nil
}

// Compare reports how two experiments' derivations differ: processes used
// by one but not the other — the cross-scientist comparison of §1 ("there
// is no way to share and compare the produced data unless the derivation
// procedures are known").
//
//lint:gaea-allow deadcode ROADMAP item 3(f) builds on experiment reproduction
func (m *Manager) Compare(a, b string) (onlyA, onlyB []string, err error) {
	ea, err := m.Get(a)
	if err != nil {
		return nil, nil, err
	}
	eb, err := m.Get(b)
	if err != nil {
		return nil, nil, err
	}
	procs := func(e *Experiment) map[string]bool {
		out := map[string]bool{}
		for _, id := range e.Tasks {
			if t, err := m.exec.Get(id); err == nil {
				out[fmt.Sprintf("%s@v%d", t.Process, t.Version)] = true
			}
		}
		return out
	}
	pa, pb := procs(ea), procs(eb)
	for p := range pa {
		if !pb[p] {
			onlyA = append(onlyA, p)
		}
	}
	for p := range pb {
		if !pa[p] {
			onlyB = append(onlyB, p)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return onlyA, onlyB, nil
}
