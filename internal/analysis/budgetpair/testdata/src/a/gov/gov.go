// Package gov stubs the governor for budgetpair's cross-package helper
// case: ReturnBudget releases its parameter, but in another package, so
// a charge settled only through it is still reported.
package gov

type Governor struct{ n int64 }

func (g *Governor) Charge(n int64)  { g.n += n }
func (g *Governor) Release(n int64) { g.n -= n }

// ReturnBudget releases n from g on the caller's behalf.
func ReturnBudget(g *Governor, n int64) {
	g.Release(n)
}
