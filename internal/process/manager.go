package process

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/storage"
)

// Manager is the persistent process registry. It enforces the paper's
// versioning rule: "a new process may be defined by editing an old process
// ... In no case is the old process overwritten" (§2.1.4 observation 3) —
// Redefine appends a new version; old versions remain addressable so tasks
// recorded against them stay reproducible.
type Manager struct {
	mu        sync.RWMutex
	store     *storage.Store
	cat       *catalog.Catalog
	reg       *adt.Registry
	procs     map[string][]*Process  // name → versions ascending
	compounds map[string][]*Compound // name → versions ascending
}

// Errors returned by the manager.
var (
	ErrProcessExists   = errors.New("process: already defined")
	ErrProcessNotFound = errors.New("process: not found")
)

const procKeyPrefix = "process/"

type storedDef struct {
	Kind    string `json:"kind"` // "primitive" | "compound"
	Name    string `json:"name"`
	Version int    `json:"version"`
	Source  string `json:"source"`
}

// OpenManager loads all persisted process definitions, re-parsing and
// re-checking them against the current catalog and registry.
func OpenManager(st *storage.Store, cat *catalog.Catalog, reg *adt.Registry) (*Manager, error) {
	m := &Manager{
		store:     st,
		cat:       cat,
		reg:       reg,
		procs:     make(map[string][]*Process),
		compounds: make(map[string][]*Compound),
	}
	keys := st.MetaKeys(procKeyPrefix)
	var defs []storedDef
	for _, key := range keys {
		raw, ok := st.MetaGet(key)
		if !ok {
			continue
		}
		var d storedDef
		if err := json.Unmarshal(raw, &d); err != nil {
			return nil, fmt.Errorf("process: corrupt definition at %s: %w", key, err)
		}
		defs = append(defs, d)
	}
	// Load primitives before compounds (compounds resolve primitives), each
	// in version order.
	sort.Slice(defs, func(i, j int) bool {
		if defs[i].Kind != defs[j].Kind {
			return defs[i].Kind == "primitive"
		}
		if defs[i].Name != defs[j].Name {
			return defs[i].Name < defs[j].Name
		}
		return defs[i].Version < defs[j].Version
	})
	for _, d := range defs {
		pr, c, err := Parse(d.Source)
		if err != nil {
			return nil, fmt.Errorf("process: reload %s v%d: %w", d.Name, d.Version, err)
		}
		switch {
		case pr != nil:
			pr.Version = d.Version
			if err := Check(pr, cat, reg); err != nil {
				return nil, fmt.Errorf("process: reload %s v%d: %w", d.Name, d.Version, err)
			}
			m.procs[pr.Name] = append(m.procs[pr.Name], pr)
		case c != nil:
			c.Version = d.Version
			if err := CheckCompound(c, m.resolveLocked, cat); err != nil {
				return nil, fmt.Errorf("process: reload %s v%d: %w", d.Name, d.Version, err)
			}
			m.compounds[c.Name] = append(m.compounds[c.Name], c)
		}
	}
	return m, nil
}

// resolveLocked reports the signature of a process for compound checking.
func (m *Manager) resolveLocked(name string) ([]ArgSpec, string, error) {
	if vs := m.procs[name]; len(vs) > 0 {
		p := vs[len(vs)-1]
		return p.Args, p.OutClass, nil
	}
	if vs := m.compounds[name]; len(vs) > 0 {
		c := vs[len(vs)-1]
		return c.Args, c.OutClass, nil
	}
	return nil, "", fmt.Errorf("%w: %q", ErrProcessNotFound, name)
}

// Define parses, checks, and persists a new process definition (primitive
// or compound). The name must be new.
func (m *Manager) Define(src string) (name string, err error) {
	pr, c, err := Parse(src)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if pr != nil {
		name = pr.Name
		if m.existsLocked(name) {
			return "", fmt.Errorf("%w: %s (use Redefine to create a new version)", ErrProcessExists, name)
		}
		if err := Check(pr, m.cat, m.reg); err != nil {
			return "", err
		}
		pr.Version = 1
		if err := m.persistLocked("primitive", pr.Name, pr.Version, src); err != nil {
			return "", err
		}
		m.procs[name] = append(m.procs[name], pr)
		// Record the derivation link on the output class when unset.
		if cls, cerr := m.cat.Class(pr.OutClass); cerr == nil && cls.DerivedBy == "" {
			if err := m.cat.SetDerivedBy(pr.OutClass, pr.Name); err != nil {
				return "", err
			}
		}
		return name, nil
	}
	name = c.Name
	if m.existsLocked(name) {
		return "", fmt.Errorf("%w: %s (use Redefine to create a new version)", ErrProcessExists, name)
	}
	if err := CheckCompound(c, m.resolveLocked, m.cat); err != nil {
		return "", err
	}
	c.Version = 1
	if err := m.persistLocked("compound", c.Name, c.Version, src); err != nil {
		return "", err
	}
	m.compounds[name] = append(m.compounds[name], c)
	return name, nil
}

// Redefine parses a new version of an existing process. The previous
// versions remain stored and addressable.
func (m *Manager) Redefine(src string) (name string, version int, err error) {
	pr, c, err := Parse(src)
	if err != nil {
		return "", 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if pr != nil {
		name = pr.Name
		vs := m.procs[name]
		if len(vs) == 0 {
			return "", 0, fmt.Errorf("%w: %q (use Define first)", ErrProcessNotFound, name)
		}
		if err := Check(pr, m.cat, m.reg); err != nil {
			return "", 0, err
		}
		pr.Version = vs[len(vs)-1].Version + 1
		if err := m.persistLocked("primitive", name, pr.Version, src); err != nil {
			return "", 0, err
		}
		m.procs[name] = append(vs, pr)
		return name, pr.Version, nil
	}
	name = c.Name
	vs := m.compounds[name]
	if len(vs) == 0 {
		return "", 0, fmt.Errorf("%w: %q (use Define first)", ErrProcessNotFound, name)
	}
	if err := CheckCompound(c, m.resolveLocked, m.cat); err != nil {
		return "", 0, err
	}
	c.Version = vs[len(vs)-1].Version + 1
	if err := m.persistLocked("compound", name, c.Version, src); err != nil {
		return "", 0, err
	}
	m.compounds[name] = append(vs, c)
	return name, c.Version, nil
}

func (m *Manager) existsLocked(name string) bool {
	return len(m.procs[name]) > 0 || len(m.compounds[name]) > 0
}

func (m *Manager) persistLocked(kind, name string, version int, src string) error {
	raw, err := json.Marshal(storedDef{Kind: kind, Name: name, Version: version, Source: src})
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%s%s@%06d", procKeyPrefix, name, version)
	return m.store.MetaSet(key, raw)
}

// Lookup returns the latest version of a primitive process.
func (m *Manager) Lookup(name string) (*Process, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	vs := m.procs[name]
	if len(vs) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrProcessNotFound, name)
	}
	return vs[len(vs)-1], nil
}

// LookupVersion returns a specific version of a primitive process.
func (m *Manager) LookupVersion(name string, version int) (*Process, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, p := range m.procs[name] {
		if p.Version == version {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w: %q v%d", ErrProcessNotFound, name, version)
}

// LookupCompound returns the latest version of a compound process.
func (m *Manager) LookupCompound(name string) (*Compound, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	vs := m.compounds[name]
	if len(vs) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrProcessNotFound, name)
	}
	return vs[len(vs)-1], nil
}

// IsCompound reports whether name is a compound process.
func (m *Manager) IsCompound(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.compounds[name]) > 0
}

// Names lists all process names (primitive and compound), sorted.
func (m *Manager) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.procs)+len(m.compounds))
	for n := range m.procs {
		out = append(out, n)
	}
	for n := range m.compounds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Versions lists the stored versions of a process, ascending.
func (m *Manager) Versions(name string) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []int
	for _, p := range m.procs[name] {
		out = append(out, p.Version)
	}
	for _, c := range m.compounds[name] {
		out = append(out, c.Version)
	}
	sort.Ints(out)
	return out
}

// ProcessesProducing lists primitive processes whose output class is the
// given class — the derivation edges into a Petri-net place.
func (m *Manager) ProcessesProducing(class string) []*Process {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Process
	for _, vs := range m.procs {
		p := vs[len(vs)-1]
		if p.OutClass == class {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Expand flattens a compound process into primitive steps, recursively
// expanding nested compounds ("a compound process cannot be directly
// applied, but must be expanded into its primitive processes before actual
// derivation takes place", §2.1.4). Step results are namespaced by their
// compound path. The returned output name identifies the step result that
// carries the compound's output.
func (m *Manager) Expand(name string) (steps []Step, output string, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, err := m.latestCompoundLocked(name)
	if err != nil {
		return nil, "", err
	}
	bind := make(map[string]string, len(c.Args))
	for _, a := range c.Args {
		bind[a.Name] = a.Name
	}
	steps, local, err := m.expandLocked(c, bind, "", 0)
	if err != nil {
		return nil, "", err
	}
	output, ok := local[c.OutAlias]
	if !ok {
		return nil, "", fmt.Errorf("process: compound %s output %q not produced", c.Name, c.OutAlias)
	}
	return steps, output, nil
}

func (m *Manager) latestCompoundLocked(name string) (*Compound, error) {
	vs := m.compounds[name]
	if len(vs) == 0 {
		return nil, fmt.Errorf("%w: compound %q", ErrProcessNotFound, name)
	}
	return vs[len(vs)-1], nil
}

const maxExpandDepth = 16

func (m *Manager) expandLocked(c *Compound, bind map[string]string, prefix string, depth int) ([]Step, map[string]string, error) {
	if depth > maxExpandDepth {
		return nil, nil, fmt.Errorf("process: compound %s exceeds expansion depth %d (cycle?)", c.Name, maxExpandDepth)
	}
	var out []Step
	local := make(map[string]string) // step result → namespaced name
	resolveName := func(n string) (string, error) {
		if v, ok := local[n]; ok {
			return v, nil
		}
		if v, ok := bind[n]; ok {
			return v, nil
		}
		return "", fmt.Errorf("process: compound %s: unresolved name %q", c.Name, n)
	}
	for _, s := range c.Steps {
		mapped := make([]string, len(s.Args))
		for i, a := range s.Args {
			v, err := resolveName(a)
			if err != nil {
				return nil, nil, err
			}
			mapped[i] = v
		}
		namespaced := prefix + s.Result
		if len(m.procs[s.Process]) > 0 {
			out = append(out, Step{Result: namespaced, Process: s.Process, Args: mapped})
			local[s.Result] = namespaced
			continue
		}
		nested, err := m.latestCompoundLocked(s.Process)
		if err != nil {
			return nil, nil, err
		}
		if len(nested.Args) != len(mapped) {
			return nil, nil, fmt.Errorf("process: compound %s step %s: arity mismatch", c.Name, s.Result)
		}
		nestedBind := make(map[string]string, len(nested.Args))
		for i, a := range nested.Args {
			nestedBind[a.Name] = mapped[i]
		}
		sub, subLocal, err := m.expandLocked(nested, nestedBind, namespaced+"/", depth+1)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, sub...)
		// The nested compound's output becomes this step's result.
		nestedOut, ok := subLocal[nested.OutAlias]
		if !ok {
			return nil, nil, fmt.Errorf("process: compound %s: nested %s output missing", c.Name, nested.Name)
		}
		local[s.Result] = nestedOut
	}
	return out, local, nil
}
