// Package suite assembles the full gaea-vet analyzer roster in one
// place, so the cmd/gaea-vet multichecker and the self-test that runs
// the suite over the real module can never drift apart.
package suite

import (
	"gaea/internal/lint"
	"gaea/internal/lint/ctxflow"
	"gaea/internal/lint/deadcode"
	"gaea/internal/lint/errtaxonomy"
	"gaea/internal/lint/lockorder"
	"gaea/internal/lint/poolsafe"
	"gaea/internal/lint/spanend"
	"gaea/internal/lint/wirebounds"
)

// All is the invariant suite, in diagnostic-name order.
var All = []*lint.Analyzer{
	ctxflow.Analyzer,
	deadcode.Analyzer,
	errtaxonomy.Analyzer,
	lockorder.Analyzer,
	poolsafe.Analyzer,
	spanend.Analyzer,
	wirebounds.Analyzer,
}
