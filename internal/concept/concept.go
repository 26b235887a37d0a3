// Package concept implements the high-level semantics layer of §2.1.1:
// Concepts. "A concept is a representation of a spatio-temporal entity set
// extended with an imprecise definition ... formally, each type of base
// data and each process for deriving data defines a unique class; a
// concept is simply a set of classes."
//
// DESERTIC REGION means "the same thing" to every scientist at the highest
// level of abstraction, but each derivation (rainfall < 250 mm vs < 200 mm)
// pins down a different class; the concept collects them. Concepts form
// specialization hierarchies (hot trade-wind desert ISA desert), which the
// paper allows to be general DAGs (footnote 4).
package concept

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"

	"gaea/internal/catalog"
	"gaea/internal/storage"
)

// Errors returned by the manager.
var (
	ErrExists   = errors.New("concept: already defined")
	ErrNotFound = errors.New("concept: not found")
	ErrBad      = errors.New("concept: invalid definition")
	ErrCycle    = errors.New("concept: ISA cycle")
)

// Concept is one named concept.
type Concept struct {
	Name string `json:"name"`
	Doc  string `json:"doc,omitempty"`
	// Classes are the member non-primitive classes — the dashed expansion
	// arrows of Figure 2 (hot trade-wind desert → {C2, C3, C4, C5}).
	Classes []string `json:"classes"`
	// Parents are ISA links to more general concepts.
	Parents []string `json:"parents,omitempty"`
}

var identRe = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9_ -]*$`)

// Manager is the persistent concept registry.
type Manager struct {
	mu       sync.RWMutex
	store    *storage.Store
	cat      *catalog.Catalog
	concepts map[string]*Concept
}

const conceptKeyPrefix = "concept/"

// OpenManager loads concepts from the store.
func OpenManager(st *storage.Store, cat *catalog.Catalog) (*Manager, error) {
	m := &Manager{store: st, cat: cat, concepts: make(map[string]*Concept)}
	for _, key := range st.MetaKeys(conceptKeyPrefix) {
		raw, ok := st.MetaGet(key)
		if !ok {
			continue
		}
		var c Concept
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, fmt.Errorf("concept: corrupt definition at %s: %w", key, err)
		}
		m.concepts[c.Name] = &c
	}
	return m, nil
}

// Define validates and persists a concept. Parents must already exist
// (define general concepts first); member classes must exist in the
// catalog. The paper notes users may create silly concepts (CLOUD ∪
// CENSUS) — "we leave it to the user to avoid such" — so semantic sanity
// is not checked, only referential integrity.
func (m *Manager) Define(c *Concept) error {
	if !identRe.MatchString(c.Name) {
		return fmt.Errorf("%w: bad name %q", ErrBad, c.Name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.concepts[c.Name]; dup {
		return fmt.Errorf("%w: %s", ErrExists, c.Name)
	}
	seen := map[string]bool{}
	for _, cls := range c.Classes {
		if !m.cat.Exists(cls) {
			return fmt.Errorf("%w: member class %q unknown", ErrBad, cls)
		}
		if seen[cls] {
			return fmt.Errorf("%w: duplicate member class %q", ErrBad, cls)
		}
		seen[cls] = true
	}
	for _, p := range c.Parents {
		if p == c.Name {
			return fmt.Errorf("%w: %s ISA itself", ErrCycle, c.Name)
		}
		if _, ok := m.concepts[p]; !ok {
			return fmt.Errorf("%w: parent concept %q unknown", ErrBad, p)
		}
	}
	raw, err := json.Marshal(c)
	if err != nil {
		return err
	}
	if err := m.store.MetaSet(conceptKeyPrefix+c.Name, raw); err != nil {
		return err
	}
	cp := *c
	cp.Classes = append([]string(nil), c.Classes...)
	cp.Parents = append([]string(nil), c.Parents...)
	m.concepts[c.Name] = &cp
	return nil
}

// Get returns a concept by name.
func (m *Manager) Get(name string) (*Concept, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.concepts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	cp := *c
	cp.Classes = append([]string(nil), c.Classes...)
	cp.Parents = append([]string(nil), c.Parents...)
	return &cp, nil
}

// Names lists all concepts, sorted.
func (m *Manager) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.concepts))
	for n := range m.concepts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MemberClasses returns the classes of a concept including those of all
// specialising concepts — querying DESERT covers hot trade-wind deserts
// and ice/snow deserts. Sorted, deduplicated.
func (m *Manager) MemberClasses(name string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.concepts[name]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// Build the child relation once.
	children := map[string][]string{}
	for n, c := range m.concepts {
		for _, p := range c.Parents {
			children[p] = append(children[p], n)
		}
	}
	classes := map[string]bool{}
	seen := map[string]bool{}
	var walk func(n string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, cls := range m.concepts[n].Classes {
			classes[cls] = true
		}
		for _, ch := range children[n] {
			walk(ch)
		}
	}
	walk(name)
	out := make([]string, 0, len(classes))
	for cls := range classes {
		out = append(out, cls)
	}
	sort.Strings(out)
	return out, nil
}
