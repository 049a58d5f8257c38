// Package membudget is the cross-layer memory accounting authority: one
// Governor per run that every layer charges — the graph representation's
// adjacency bytes at facade entry, the in-core enumerators' resident
// level blocks, the parallel pool's per-worker scratch, merge-window
// buffers and per-block bookkeeping, and the out-of-core engine's
// in-flight shard I/O buffers.  It replaces the three disjoint ad-hoc
// budget fields the backends grew independently (a MemoryBudget field on
// the sequential entry point's options, a budget and over-budget flag on
// the Builder, and the facade-level rejection of budgets on every other
// backend) with one definition of "what memory means": the sum of
// everything a layer declared resident, compared against one budget.
//
// The paper's central tension motivates the design: the fast in-core
// enumerator dies when candidate storage outgrows RAM (the graph-B
// blow-up that "consumed 607 GB ... when it was terminated"), while the
// out-of-core regime survives but pays "intensive disk I/O".  A single
// accounting authority is what lets the hybrid backend stay in memory
// while the run fits and spill transparently the moment it does not —
// the resource-aware-runtime answer of the out-of-core GWAS literature.
//
// Charge/Release are cheap atomics, safe for concurrent use by worker
// pools; all methods are nil-receiver safe so layers charge
// unconditionally and an unbudgeted run costs two predictable branches.
package membudget

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudget is the sentinel every budget-exceeded abort wraps, across
// all backends.  core.ErrMemoryBudget aliases it, preserving the
// historical errors.Is target.
var ErrBudget = errors.New("memory budget exceeded")

// Governor is one run's memory accounting authority.  The zero value is
// unusable; use New.  A Governor with budget 0 only observes (Used/Peak
// stay meaningful, Over is always false) — this is how every backend
// reports PeakBytes even when no budget was configured.
type Governor struct {
	budget int64 // immutable after New
	used   atomic.Int64
	peak   atomic.Int64
	trip   atomic.Bool // latched by the first over-budget Charge
	// parent, when non-nil, receives a mirror of every Charge/Release:
	// this governor is a Reservation's child and the parent's Used must
	// remain the true resident total across all tenants.  Immutable
	// after Reserve.
	parent *Governor
	// reserved is the sum of outstanding reservations carved out of
	// this governor's budget (see Reserve).
	reserved atomic.Int64
}

// New returns a Governor enforcing the given budget in bytes; budget <= 0
// means unlimited (observe only).
func New(budget int64) *Governor {
	if budget < 0 {
		budget = 0
	}
	return &Governor{budget: budget}
}

// Budget returns the configured budget (0 = unlimited).  nil-safe.
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// Charge declares n more bytes resident.  nil-safe; n <= 0 is a no-op.
// A reservation's child governor forwards the charge to its parent, so
// a shared server governor always sees the true resident total.
func (g *Governor) Charge(n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.parent.Charge(n)
	used := g.used.Add(n)
	// Peak is monotone; the CAS loop loses only to strictly larger peaks.
	for {
		p := g.peak.Load()
		if used <= p || g.peak.CompareAndSwap(p, used) {
			break
		}
	}
	if g.budget > 0 && used > g.budget {
		g.trip.Store(true)
	}
}

// Release declares n bytes no longer resident.  nil-safe; n <= 0 is a
// no-op.  Releasing more than was charged is a caller bug; Used is
// clamped at zero rather than going negative so a stray double release
// cannot fake headroom forever.  The clamp is a CAS loop so containing
// one goroutine's over-release can never erase another's concurrent
// charge.
func (g *Governor) Release(n int64) {
	if g == nil || n <= 0 {
		return
	}
	for {
		u := g.used.Load()
		nu := u - n
		if nu < 0 {
			nu = 0
		}
		if g.used.CompareAndSwap(u, nu) {
			// Forward only the bytes actually released: a clamped
			// over-release must not erase another tenant's charge from
			// the shared parent.
			g.parent.Release(u - nu)
			return
		}
	}
}

// Used returns the bytes currently declared resident.  nil-safe.
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// Peak returns the high-water mark of Used over the run.  nil-safe.
func (g *Governor) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// Over reports whether the current residency exceeds a configured
// budget.  It is the trip check the in-core backends poll before every
// sub-list join (the charges it sees arrive a block at a time): two
// atomic loads, no locks.  nil-safe.
func (g *Governor) Over() bool {
	return g != nil && g.budget > 0 && g.used.Load() > g.budget
}

// Tripped reports whether Used has ever exceeded the budget, even if
// releases brought it back under.  nil-safe.
func (g *Governor) Tripped() bool {
	return g != nil && g.trip.Load()
}

// Err returns a descriptive error wrapping ErrBudget, for backends
// that abort on a trip.  It reports the Peak, not the instantaneous
// Used: abort paths reconcile (release) in-flight work before they
// format the error, and a message claiming fewer resident bytes than
// the budget it exceeded would contradict itself.
func (g *Governor) Err() error {
	return fmt.Errorf("%w: peak %d bytes resident > budget %d", ErrBudget, g.Peak(), g.Budget())
}
