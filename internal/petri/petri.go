// Package petri implements §2.1.6: derivation diagrams as modified Petri
// nets. "Every non-primitive class ... corresponds to a place in a PN, and
// every process corresponds to a transition. Tokens in every place
// represent the data objects."
//
// The paper modifies classical PN semantics in three ways, all implemented
// here:
//
//  1. Tokens are NOT removed when a transition fires — data objects are
//     permanent and reusable, so firing is monotone.
//  2. The number of inputs to a transition is a minimum threshold; a
//     firing may use more tokens than the threshold.
//  3. Guard assertions (the process TEMPLATE's constraint rules) must hold
//     among the chosen input tokens for the transition to be enabled.
//
// Monotonicity makes reachability a fixed-point computation: starting from
// the marking of stored objects, repeatedly fire every enabled transition
// until nothing new appears. The planner (planner.go) runs the same logic
// backwards to answer the paper's retrieval question: "given a final
// marking, try to find the initial marking which can lead to this
// marking".
package petri

import (
	"fmt"
	"sort"
	"strings"
)

// Arc is one input requirement of a transition: at least Weight tokens in
// Place.
type Arc struct {
	Place  string
	Weight int
}

// Transition is a process viewed as a net transition.
type Transition struct {
	Name string // process name
	In   []Arc  // input thresholds per argument
	Out  string // output place (the derived class)
}

// Net is a derivation diagram.
type Net struct {
	places      map[string]bool
	transitions []Transition
}

// NewNet returns an empty net.
func NewNet() *Net {
	return &Net{places: make(map[string]bool)}
}

// AddPlace declares a place (a non-primitive class).
func (n *Net) AddPlace(name string) {
	n.places[name] = true
}

// AddTransition declares a transition. All referenced places are declared
// implicitly.
func (n *Net) AddTransition(t Transition) error {
	if t.Name == "" || t.Out == "" {
		return fmt.Errorf("petri: transition needs a name and an output place")
	}
	if len(t.In) == 0 {
		return fmt.Errorf("petri: transition %s needs at least one input arc", t.Name)
	}
	for _, a := range t.In {
		if a.Weight < 1 {
			return fmt.Errorf("petri: transition %s arc from %s has weight %d", t.Name, a.Place, a.Weight)
		}
		n.places[a.Place] = true
	}
	n.places[t.Out] = true
	n.transitions = append(n.transitions, t)
	return nil
}

// Places lists all places, sorted.
func (n *Net) Places() []string {
	out := make([]string, 0, len(n.places))
	for p := range n.places {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Marking counts tokens per place. In the abstract analysis a token is
// "one stored data object"; guards are ignored (they depend on concrete
// extents, which the planner handles).
type Marking map[string]int

// Clone copies a marking.
func (m Marking) Clone() Marking {
	out := make(Marking, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Enabled reports whether a transition may fire under the marking (every
// input place holds at least the threshold).
func (m Marking) Enabled(t Transition) bool {
	// Arcs from the same place accumulate: a transition taking two
	// landcover arguments needs two tokens in landcover.
	need := map[string]int{}
	for _, a := range t.In {
		need[a.Place] += a.Weight
	}
	for place, w := range need {
		if m[place] < w {
			return false
		}
	}
	return true
}

// Closure fires every enabled transition until fixpoint, returning the
// final marking. Because tokens are not consumed (modification 1), the
// closure is well-defined and unique: each transition needs to fire only
// once per analysis (one firing proves derivability of the output class).
func (n *Net) Closure(initial Marking) Marking {
	m := initial.Clone()
	fired := make([]bool, len(n.transitions))
	for {
		progress := false
		for i, t := range n.transitions {
			if fired[i] || !m.Enabled(t) {
				continue
			}
			fired[i] = true
			m[t.Out]++
			progress = true
		}
		if !progress {
			return m
		}
	}
}

// CanDerive reports whether the target place can hold a token starting
// from the initial marking — the paper's reachability question ("decide if
// a non-existing object could be derived from existing data").
func (n *Net) CanDerive(initial Marking, target string) bool {
	if initial[target] > 0 {
		return true
	}
	return n.Closure(initial)[target] > 0
}

// String renders the net for documentation and the CLI's "show net"
// command.
func (n *Net) String() string {
	var b strings.Builder
	b.WriteString("places:\n")
	for _, p := range n.Places() {
		fmt.Fprintf(&b, "  %s\n", p)
	}
	b.WriteString("transitions:\n")
	for _, t := range n.transitions {
		parts := make([]string, len(t.In))
		for i, a := range t.In {
			parts[i] = fmt.Sprintf("%s(>=%d)", a.Place, a.Weight)
		}
		fmt.Fprintf(&b, "  %s: %s -> %s\n", t.Name, strings.Join(parts, " + "), t.Out)
	}
	return b.String()
}
