// Package repolint is the registry binding the repo's analyzers into
// one suite.  cmd/repolint and the smoke tests consume this list; add
// new analyzers here and they are picked up by `make lint` and the CI
// gate with no further wiring.
package repolint

import (
	"repro/internal/analysis/budgetpair"
	"repro/internal/analysis/cleanuperr"
	"repro/internal/analysis/ctxloop"
	"repro/internal/analysis/frozengraph"
	"repro/internal/analysis/goroleak"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lintkit"
	"repro/internal/analysis/sendctx"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		budgetpair.Analyzer,
		cleanuperr.Analyzer,
		ctxloop.Analyzer,
		frozengraph.Analyzer,
		goroleak.Analyzer,
		hotalloc.Analyzer,
		sendctx.Analyzer,
	}
}
