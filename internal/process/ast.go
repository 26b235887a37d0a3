// Package process implements the derivation semantics layer of §2.1.2: the
// Process construct. A process "defines a mapping between a set of input
// object classes and an output object class"; its TEMPLATE holds
// ASSERTIONS (guard rules that must hold before the process may fire) and
// MAPPINGS (transfer functions deriving output attributes from input
// attributes). Processes are written in a concrete definition language
// modelled on Figure 3:
//
//	DEFINE PROCESS unsupervised_classification (
//	  OUTPUT   C20 landcover
//	  ARGUMENT ( SETOF bands landsat_tm )
//	  TEMPLATE {
//	    ASSERTIONS:
//	      card ( bands ) = 3;
//	      common ( bands.spatialextent );
//	      common ( bands.timestamp );
//	    MAPPINGS:
//	      C20.data = unsuperclassify ( composite ( bands.data ), 12 );
//	      C20.numclass = 12;
//	      C20.spatialextent = ANYOF bands.spatialextent;
//	      C20.timestamp = ANYOF bands.timestamp;
//	  }
//	)
//
// Compound processes (Figure 5) are networks of process invocations and
// "must be expanded into primitive processes before actual derivation
// takes place":
//
//	DEFINE COMPOUND PROCESS land_change_detection (
//	  OUTPUT out land_cover_changes
//	  ARGUMENT ( SETOF tm1 landsat_tm )
//	  ARGUMENT ( SETOF tm2 landsat_tm )
//	  STEPS {
//	    lc1 = unsupervised_classification ( tm1 );
//	    lc2 = unsupervised_classification ( tm2 );
//	    out = change_map ( lc1, lc2 );
//	  }
//	)
//
// The paper assumes "the same derivation method with different parameters
// represents different processes" (§2.1.2) — parameters are literals baked
// into a process's template, so two NDVI-change processes with different
// thresholds are distinct processes with distinct names.
package process

import (
	"fmt"
	"strings"

	"gaea/internal/value"
)

// Expr is a template expression.
type Expr interface {
	// String renders the expression in definition-language syntax.
	String() string
}

// Lit is a literal value (int, float, string, bool).
type Lit struct {
	Val value.Value
}

// String implements Expr.
func (l *Lit) String() string {
	if s, ok := l.Val.(value.String_); ok {
		return fmt.Sprintf("%q", string(s))
	}
	return l.Val.String()
}

// ArgRef names a process argument; legal on its own only inside card().
type ArgRef struct {
	Name string
}

// String implements Expr.
func (a *ArgRef) String() string { return a.Name }

// AttrPath projects an attribute over an argument: bands.spatialextent is
// the set of the bands objects' spatial extents.
type AttrPath struct {
	Arg, Attr string
}

// String implements Expr.
func (a *AttrPath) String() string { return a.Arg + "." + a.Attr }

// Call applies an operator (registry or template builtin: card, common,
// anyof) to argument expressions.
type Call struct {
	Fn   string
	Args []Expr
}

// String implements Expr.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// Compare is a binary comparison, used in assertions: card(bands) = 3.
type Compare struct {
	Op          string // =, !=, <, <=, >, >=
	Left, Right Expr
}

// String implements Expr.
func (c *Compare) String() string {
	return c.Left.String() + " " + c.Op + " " + c.Right.String()
}

// ArgSpec declares one process argument.
type ArgSpec struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	// IsSet marks SETOF arguments; scalar arguments bind exactly one
	// object.
	IsSet bool `json:"is_set"`
	// MinCard is the minimum number of input objects needed to enable the
	// process — the Petri-net input threshold of §2.1.6 item 2. It is
	// extracted from card() assertions at definition time (card(x) = 3
	// gives 3; card(x) >= 2 gives 2) and defaults to 1.
	MinCard int `json:"min_card"`
}

// Mapping assigns an output attribute from an expression.
type Mapping struct {
	Attr string
	Expr Expr
}

// Process is a primitive process definition.
type Process struct {
	Name    string
	Version int
	Doc     string
	// OutAlias is the output identifier used in the template (C20 in
	// Figure 3).
	OutAlias string
	// OutClass names the derived class this process defines.
	OutClass   string
	Args       []ArgSpec
	Assertions []Expr
	Mappings   []Mapping
	// Source is the original definition text, preserved for display,
	// editing, and re-parsing.
	Source string
}

// Arg returns the argument spec by name.
func (p *Process) Arg(name string) (ArgSpec, bool) {
	for _, a := range p.Args {
		if a.Name == name {
			return a, true
		}
	}
	return ArgSpec{}, false
}

// Step is one invocation inside a compound process: result = process(args),
// where each arg names either a compound argument or a prior step result.
type Step struct {
	Result  string
	Process string
	Args    []string
}

// Compound is a compound process: "merely an abstraction which can be used
// to simplify a derivation relationship" (§2.1.4, observation 2).
type Compound struct {
	Name    string
	Version int
	Doc     string
	// OutAlias must match the Result of exactly one step — the compound's
	// output.
	OutAlias string
	OutClass string
	Args     []ArgSpec
	Steps    []Step
	Source   string
}
