package core

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// ErrMemoryBudget is returned (wrapped) when enumeration exceeds the
// memory budget — the in-library analogue of the paper's graph-B run
// that "consumed 607 GB ... and 404 GB ... when it was terminated after
// 12 hours".  It aliases the governor's sentinel, so every backend's
// budget abort satisfies the same errors.Is target.
var ErrMemoryBudget = membudget.ErrBudget

// Options configures Enumerate.
type Options struct {
	// Ctx, when non-nil, cancels the enumeration: the k-clique seed
	// polls it every 1 024 search nodes, the level loop checks it before
	// every generation step, and Step checks it every 64 sub-lists within
	// a level, bounding cancellation latency to a small batch of work.  On cancellation Enumerate returns the partial
	// Result together with an error wrapping ctx.Err().
	Ctx context.Context
	// Lo is the smallest clique size of interest (the paper's Init_K).
	// When Lo <= 2 the enumeration seeds directly from the edge list;
	// otherwise the k-clique enumerator (package kclique) seeds the
	// candidate lists and reports the maximal Lo-cliques.  Default 2.
	Lo int
	// Hi, when positive, stops the enumeration after cliques of size Hi
	// have been generated — the upper bound obtained from a maximum
	// clique computation in the paper's pipeline.  0 means run until no
	// candidates remain.
	Hi int
	// Reporter receives each maximal clique (size in [max(Lo,3), Hi],
	// plus size-Lo maximal cliques when seeding with Lo >= 3, plus
	// 1- and 2-cliques only as enabled below).  May be nil to count only.
	Reporter clique.Reporter
	// ReportSmall additionally reports maximal 1-cliques (isolated
	// vertices) and maximal 2-cliques (edges with no common neighbor)
	// when Lo <= 2.  The paper's experiments start at size 3 and skip
	// these; tools that need complete covers enable it.
	ReportSmall bool
	// Mode is the common-neighbor bitmap policy.  The zero value,
	// CNRecompute, retains no bitmap with a sub-list and rebuilds it at
	// join time from the builder's memo of the previous sub-list (one or
	// two row ANDs in canonical order).  CNStore is the paper's policy —
	// a dense bitmap per sub-list, n/8 bytes each.
	Mode CNMode
	// Gov, when non-nil, is the run's shared memory governor: the seed
	// level, every sealed block and the builder's scratch are charged
	// against it, consumed levels are released at step boundaries, and
	// enumeration aborts with ErrMemoryBudget once it reports Over.
	// Callers that charge other layers into the same governor (the facade
	// charges the graph representation's adjacency bytes) thereby tighten
	// the candidate headroom — one budget, one meaning of memory.  nil
	// runs unaccounted and unbounded.
	Gov *membudget.Governor
	// OnLevel, when non-nil, observes each generation step.
	OnLevel func(LevelStats)
}

// Enumerate runs the Clique Enumerator over g — any graph representation
// — and returns run statistics.  Maximal cliques are reported in
// non-decreasing order of size; within a level, in canonical order.  It
// is the sequential entry point to the shared level loop (Loop.Run):
// seed, one Builder as the level engine, budget trip aborts.
func Enumerate(g graph.Interface, opts Options) (*Result, error) {
	if opts.Lo == 0 {
		opts.Lo = 2
	}
	if err := enumcfg.CheckBounds(opts.Lo, opts.Hi); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := enumcfg.CheckMode(opts.Mode); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	res := &Result{}
	seed := clique.Tally{Next: opts.Reporter}
	lvl, err := Seed(opts.Ctx, g, opts.Lo, opts.Mode, opts.ReportSmall, &seed)
	res.Seeded(seed)
	if err != nil {
		return res, err
	}

	gov := opts.Gov
	b := NewBuilderMode(g, opts.Mode, bitset.NewPool(g.N()))
	b.Gov = gov
	gov.Charge(b.ScratchBytes())
	defer func() { gov.Release(b.ScratchBytes()) }() // read at exit: the memo may have grown
	loop := Loop{
		Ctx:      opts.Ctx,
		Hi:       opts.Hi,
		Gov:      gov,
		Reporter: opts.Reporter,
		OnLevel:  res.Fold(opts.OnLevel),
	}
	if err := loop.Run(b, lvl, nil); err != nil {
		return res, fmt.Errorf("core: %w", err)
	}
	return res, nil
}
