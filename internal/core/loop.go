package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clique"
	"repro/internal/membudget"
)

// LevelEngine runs one generation step over a whole level.  There are
// two: the sequential Builder (Builder.RunLevel) and the streaming
// worker pool (parallel.Pool.RunLevel).  Both deliver emissions in
// canonical order and stop early — on ctx or trip — at the consistent
// cut LevelOutcome documents, so the loop below never needs to know
// which one it is driving.
type LevelEngine interface {
	RunLevel(ctx context.Context, lvl *Level, homes []int32,
		r clique.Reporter, trip func() bool) LevelOutcome
}

// LevelOutcome is one RunLevel's result.  When the level ran to
// completion, Next/Homes describe the produced level and Frontier is the
// end of the input, {len(Sub), 0}.  When the trip callback (or a context
// cancellation) stopped it early, outputs were delivered in exact
// canonical order for the inputs before Frontier only: Next holds
// precisely their surviving sub-lists, nothing beyond the frontier is
// retained or charged, and the inputs from Frontier on are untouched
// input again — the consistent cut the hybrid spill resumes from.  The
// frontier is always a run start (Cursor): the sequential engine stops at
// the first run start after a trip, the pool between blocks, each of
// which starts a run, so the produced head and the unjoined rest are the
// level's own words and the step counts what the inputs before the
// frontier cost, in either engine.
type LevelOutcome struct {
	Next     *Level
	Homes    []int32 // creator worker per produced block (pool engine; nil otherwise)
	Stats    LevelStats
	Frontier Cursor
	Tripped  bool
}

// Hooks are a run's three callbacks, the part of a run description that
// is not an enumcfg.Config value: every entry point (hybrid.Enumerate,
// the ooc entry points, dist.Enumerate) takes them beside the Config and
// hands them to its level driver.
type Hooks struct {
	// Reporter receives the maximal cliques; nil counts only.
	Reporter clique.Reporter
	// OnLevel, when non-nil, observes each generation step: the completed
	// ones and, last, the one a budget abort, a cancellation or an error
	// cut short (its record covers what was delivered before the cut).
	OnLevel func(LevelStats)
	// Gov is the run's memory governor (nil = unaccounted).  A governor
	// with a budget is also the in-core trip predicate.
	Gov *membudget.Governor
}

// Loop is the in-core level loop's run description: everything the loop
// needs beyond the engine and the seed level.  The loop owns the level
// charges on Gov: the seed level on entry, each consumed level released
// at its step boundary (produced blocks are charged by the builders as
// they are sealed).  A step handed to OnTrip is the policy's to report.
type Loop struct {
	// Ctx, when non-nil, cancels the run before a level and (through the
	// engine) during one.
	Ctx context.Context
	// Hi, when positive, stops after cliques of size Hi were generated.
	Hi int
	Hooks
	// OnTrip is the trip policy.  nil aborts the run with
	// ErrMemoryBudget.  Otherwise it is handed the consumed level and the
	// tripped step's outcome, takes over both levels' governor charges,
	// and its error is the run's — the hybrid backend's hand-off to disk.
	OnTrip func(lvl *Level, out LevelOutcome) error
}

// Run is the one in-core level loop — seed charge, then per level:
// cancellation check, engine step, observe, release — shared by the
// sequential, parallel and hybrid entry points.  On every return path the
// governor's Used is back at its entry value (an OnTrip policy inherits
// that duty for the two levels it is handed).
//
//repro:ctxloop
func (l *Loop) Run(eng LevelEngine, lvl *Level, homes []int32) error {
	gov := l.Gov
	gov.Charge(lvl.Bytes())
	var trip func() bool
	if gov.Budget() > 0 {
		trip = gov.Over
	}
	for len(lvl.Sub) > 0 && (l.Hi == 0 || lvl.K+1 <= l.Hi) {
		if l.Ctx != nil && l.Ctx.Err() != nil {
			gov.Release(lvl.Bytes()) // retire the level before aborting
			return fmt.Errorf("canceled before level %d->%d: %w", lvl.K, lvl.K+1, l.Ctx.Err())
		}
		start := time.Now()
		out := eng.RunLevel(l.Ctx, lvl, homes, l.Reporter, trip)
		out.Stats.Elapsed = time.Since(start)
		if trip != nil && out.Frontier.Block == len(lvl.Sub) && trip() {
			// The level's last blocks were charged when the engine sealed
			// them, after its last poll: a level that ends over budget has
			// tripped, with nothing left beyond the frontier.
			out.Tripped = true
		}
		if out.Tripped && l.OnTrip != nil {
			return l.OnTrip(lvl, out)
		}
		st := out.Stats
		if l.OnLevel != nil {
			l.OnLevel(st)
		}
		switch {
		case out.Tripped:
			// gov.Err() reports Peak, so retiring both levels first does
			// not distort the message.
			gov.Release(st.Bytes + st.NextBytes)
			return fmt.Errorf("level %d->%d: %w", lvl.K, lvl.K+1, gov.Err())
		case out.Frontier.Block < len(lvl.Sub):
			// Canceled mid-level: the consumed level and the head of the
			// next one the engine retained are both still charged.
			gov.Release(st.Bytes + st.NextBytes)
			return fmt.Errorf("canceled during level %d->%d: %w", lvl.K, lvl.K+1, l.Ctx.Err())
		}
		gov.Release(st.Bytes) // the consumed level is retired
		lvl, homes = out.Next, out.Homes
	}
	gov.Release(lvl.Bytes()) // the final (empty or Hi-cut) level
	return nil
}
