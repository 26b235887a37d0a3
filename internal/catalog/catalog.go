// Package catalog manages Gaea's class definitions: primitive classes
// (delegated to the value package), and the non-primitive classes of the
// derivation semantics layer — attribute schemas with SPATIAL EXTENT and
// TEMPORAL EXTENT declarations and a DERIVED BY link to the process that
// defines them (§2.1.2, the landcover example). Definitions persist in the
// storage engine and survive restarts.
//
// Per the paper, "automatically defined (retrieval) functions" accompany
// every attribute: the catalog exposes them as the set of legal accessor
// names for a class (area(landcover), timestamp(landcover), ...).
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"

	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

// Kind distinguishes base from derived non-primitive classes (Figure 2's
// legend: "Base Nonprimitive Class" vs "Derived Nonprimitive Class").
type Kind string

// Class kinds.
const (
	KindBase    Kind = "base"
	KindDerived Kind = "derived"
)

// Errors returned by the catalog.
var (
	ErrClassExists   = errors.New("catalog: class already defined")
	ErrClassNotFound = errors.New("catalog: class not found")
	ErrBadDefinition = errors.New("catalog: invalid class definition")
)

// Attr is one attribute of a non-primitive class.
type Attr struct {
	Name string     `json:"name"`
	Type value.Type `json:"type"`
	Doc  string     `json:"doc,omitempty"`
}

// Class is a non-primitive class definition. The spatial and temporal
// extents are declared separately from ordinary attributes, mirroring the
// paper's CLASS landcover syntax with its SPATIAL EXTENT / TEMPORAL EXTENT
// sections.
type Class struct {
	Name  string `json:"name"`
	Kind  Kind   `json:"kind"`
	Attrs []Attr `json:"attrs"`
	// Frame is the spatial reference the class's extents live in
	// (ref_system/ref_unit of the landcover example).
	Frame sptemp.Frame `json:"frame"`
	// HasSpatial/HasTemporal mark the extent declarations.
	HasSpatial  bool `json:"has_spatial"`
	HasTemporal bool `json:"has_temporal"`
	// DerivedBy names the process that defines this class; derived classes
	// are "solely defined by their derivation process" (§2.1.2).
	DerivedBy string `json:"derived_by,omitempty"`
	Doc       string `json:"doc,omitempty"`
}

var identRe = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9_]*$`)

// Validate checks structural well-formedness.
func (c *Class) Validate() error {
	if !identRe.MatchString(c.Name) {
		return fmt.Errorf("%w: bad class name %q", ErrBadDefinition, c.Name)
	}
	switch c.Kind {
	case KindBase, KindDerived:
	default:
		return fmt.Errorf("%w: class %s has kind %q", ErrBadDefinition, c.Name, c.Kind)
	}
	if c.Kind == KindDerived && c.DerivedBy == "" {
		return fmt.Errorf("%w: derived class %s needs DERIVED BY", ErrBadDefinition, c.Name)
	}
	if c.Kind == KindBase && c.DerivedBy != "" {
		return fmt.Errorf("%w: base class %s must not declare DERIVED BY", ErrBadDefinition, c.Name)
	}
	seen := map[string]bool{}
	for _, a := range c.Attrs {
		if !identRe.MatchString(a.Name) {
			return fmt.Errorf("%w: class %s attribute %q", ErrBadDefinition, c.Name, a.Name)
		}
		if a.Name == "spatialextent" || a.Name == "timestamp" {
			return fmt.Errorf("%w: class %s attribute %q collides with an extent accessor", ErrBadDefinition, c.Name, a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("%w: class %s duplicate attribute %q", ErrBadDefinition, c.Name, a.Name)
		}
		seen[a.Name] = true
		if !a.Type.Valid() {
			return fmt.Errorf("%w: class %s attribute %s has unknown type %q", ErrBadDefinition, c.Name, a.Name, a.Type)
		}
	}
	if c.HasSpatial {
		if err := c.Frame.Validate(); err != nil {
			return fmt.Errorf("%w: class %s: %v", ErrBadDefinition, c.Name, err)
		}
	}
	return nil
}

// Attr returns the attribute definition by name.
func (c *Class) Attr(name string) (Attr, bool) {
	for _, a := range c.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attr{}, false
}

// RetrievalFunctions lists the automatically defined accessor names for
// the class: one per attribute plus the extent accessors.
func (c *Class) RetrievalFunctions() []string {
	out := make([]string, 0, len(c.Attrs)+2)
	for _, a := range c.Attrs {
		out = append(out, a.Name)
	}
	if c.HasSpatial {
		out = append(out, "spatialextent")
	}
	if c.HasTemporal {
		out = append(out, "timestamp")
	}
	sort.Strings(out)
	return out
}

// Catalog is the persistent class registry.
type Catalog struct {
	mu      sync.RWMutex
	store   *storage.Store
	classes map[string]*Class
}

const classKeyPrefix = "class/"

// Open loads the catalog from the store.
func Open(st *storage.Store) (*Catalog, error) {
	c := &Catalog{store: st, classes: make(map[string]*Class)}
	for _, key := range st.MetaKeys(classKeyPrefix) {
		raw, ok := st.MetaGet(key)
		if !ok {
			continue
		}
		var cls Class
		if err := json.Unmarshal(raw, &cls); err != nil {
			return nil, fmt.Errorf("catalog: corrupt definition at %s: %w", key, err)
		}
		c.classes[cls.Name] = &cls
	}
	return c, nil
}

// Define validates and persists a new class. Existing classes are never
// overwritten (the paper's no-overwrite rule); evolve a class by defining
// a new one.
func (c *Catalog) Define(cls *Class) error {
	if err := cls.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.classes[cls.Name]; exists {
		return fmt.Errorf("%w: %s", ErrClassExists, cls.Name)
	}
	raw, err := json.Marshal(cls)
	if err != nil {
		return err
	}
	if err := c.store.MetaSet(classKeyPrefix+cls.Name, raw); err != nil {
		return err
	}
	cp := *cls
	c.classes[cls.Name] = &cp
	return nil
}

// Class returns the definition of a class.
func (c *Catalog) Class(name string) (*Class, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cls, ok := c.classes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrClassNotFound, name)
	}
	cp := *cls
	return &cp, nil
}

// Exists reports whether a class is defined.
func (c *Catalog) Exists(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.classes[name]
	return ok
}

// Names lists all class names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.classes))
	for n := range c.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetDerivedBy records the defining process of a derived class after the
// process is registered (class and process definitions reference each
// other; the class may be declared first with a pending link).
func (c *Catalog) SetDerivedBy(className, process string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cls, ok := c.classes[className]
	if !ok {
		return fmt.Errorf("%w: %q", ErrClassNotFound, className)
	}
	if cls.Kind != KindDerived {
		return fmt.Errorf("%w: %s is a base class", ErrBadDefinition, className)
	}
	if cls.DerivedBy != "" && cls.DerivedBy != process {
		return fmt.Errorf("%w: %s already derived by %s", ErrBadDefinition, className, cls.DerivedBy)
	}
	cls.DerivedBy = process
	raw, err := json.Marshal(cls)
	if err != nil {
		return err
	}
	return c.store.MetaSet(classKeyPrefix+className, raw)
}
