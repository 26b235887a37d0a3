// Package adt implements the system-level semantics layer of §2.1.3: the
// registry of operators over primitive classes (the Postgres ADT facility
// of the prototype). Figure 4's compound operator — "a network of
// intercommunicating operators" — is registered stage by stage (see
// builtin.go) and run as imgops.PCANetwork; compound derivations are
// process.Compound.
//
// The registry supports the browsing §4.2 promises: look up operators by
// name and list them.
package adt

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"gaea/internal/value"
)

// Errors returned by the registry.
var (
	ErrNotFound  = errors.New("adt: operator not found")
	ErrDuplicate = errors.New("adt: operator already registered")
	ErrArity     = errors.New("adt: wrong argument count")
	ErrArgType   = errors.New("adt: wrong argument type")
)

// Func is an operator implementation: a pure function from argument values
// to a result value.
type Func func(args []value.Value) (value.Value, error)

// Operator describes one registered operator on primitive classes.
type Operator struct {
	Name string
	// In lists the parameter types in order.
	In []value.Type
	// Out is the result type.
	Out value.Type
	// Doc is a one-line description shown by the browser.
	Doc string
	// Fn executes the operator. The registry validates arity and argument
	// types before calling it.
	Fn Func
}

// Signature renders the operator like "ndvi(image, image) image".
func (op *Operator) Signature() string {
	s := op.Name + "("
	for i, t := range op.In {
		if i > 0 {
			s += ", "
		}
		s += string(t)
	}
	return s + ") " + string(op.Out)
}

// Registry holds the operator catalogue. It is safe for concurrent use.
type Registry struct {
	mu  sync.RWMutex
	ops map[string]*Operator
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ops: make(map[string]*Operator)}
}

// Register adds an operator. Names are unique; the paper's rule that "in no
// case is the old process overwritten" applies to operators too — evolve an
// operator by registering a new name.
func (r *Registry) Register(op *Operator) error {
	if op.Name == "" {
		return fmt.Errorf("adt: operator needs a name")
	}
	if op.Fn == nil {
		return fmt.Errorf("adt: operator %s needs an implementation", op.Name)
	}
	if !op.Out.Valid() {
		return fmt.Errorf("adt: operator %s has invalid output type %q", op.Name, op.Out)
	}
	for i, t := range op.In {
		if !t.Valid() {
			return fmt.Errorf("adt: operator %s has invalid input type %q at position %d", op.Name, t, i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.ops[op.Name]; exists {
		return fmt.Errorf("%w: %s", ErrDuplicate, op.Name)
	}
	r.ops[op.Name] = op
	return nil
}

// Lookup returns the operator with the given name.
func (r *Registry) Lookup(name string) (*Operator, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	op, ok := r.ops[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return op, nil
}

// Names returns all operator names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.ops))
	for n := range r.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkArgs validates argument count and types against the signature.
func checkArgs(op *Operator, args []value.Value) error {
	if len(args) != len(op.In) {
		return fmt.Errorf("%w: %s takes %d args, got %d", ErrArity, op.Name, len(op.In), len(args))
	}
	for i, a := range args {
		if a == nil {
			return fmt.Errorf("%w: %s arg %d is nil", ErrArgType, op.Name, i)
		}
		if a.Type() != op.In[i] {
			// A singleton scalar is acceptable where a set is expected;
			// operators like composite take SETOF image but a single image
			// is a valid one-element set.
			if elem, ok := op.In[i].IsSet(); ok && a.Type() == elem {
				continue
			}
			return fmt.Errorf("%w: %s arg %d is %s, want %s", ErrArgType, op.Name, i, a.Type(), op.In[i])
		}
	}
	return nil
}

// Apply validates arguments and invokes the named operator.
func (r *Registry) Apply(name string, args ...value.Value) (value.Value, error) {
	op, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := checkArgs(op, args); err != nil {
		return nil, err
	}
	out, err := op.Fn(args)
	if err != nil {
		return nil, fmt.Errorf("adt: %s: %w", name, err)
	}
	if out == nil {
		return nil, fmt.Errorf("adt: %s returned no value", name)
	}
	if out.Type() != op.Out {
		// Allow a scalar where a singleton set was declared.
		if elem, ok := op.Out.IsSet(); !ok || out.Type() != elem {
			return nil, fmt.Errorf("adt: %s returned %s, declared %s", name, out.Type(), op.Out)
		}
	}
	return out, nil
}
