// Package hybrid is the in-core runner with an optional out-of-core
// continuation: the resolution of the paper's central tension.  The
// in-core Clique Enumerator is fast but dies when candidate storage
// outgrows RAM (the graph-B run that "consumed 607 GB ... when it was
// terminated after 12 hours"); the out-of-core engine survives any level
// but pays "intensive disk I/O" from its first record.  Enumerate runs
// the shared in-core level loop (core.Loop) on the engine Workers selects
// — the sequential builder or the streaming worker pool — under the
// memory governor (package membudget).  It is the one in-core entry
// point: every run that starts in memory, spill directory or not, seeds
// and loops here.  With a spill Dir, the moment the governor trips it
// hands the step being generated to the disk-backed engine, which takes
// it over as data — the unjoined input and the head of the output, in
// run-aligned shard files — and finishes it and the run on disk:
// memory-priced while the run fits, disk-priced only from the step that
// stopped fitting.  Without one, a trip aborts with core.ErrMemoryBudget.
//
// The spilled stream is byte-identical to a pure in-core run's:
//
//   - The in-core backends emit, and retain candidates, in canonical
//     order, and outputs of input sub-list i sort strictly before
//     outputs of input j > i.  A trip therefore yields a consistent cut:
//     for some frontier f — a run start: a block and a word in it —
//     everything for inputs before f has been emitted and retained;
//     inputs from f on are untouched (the parallel pool's
//     sched.Sequencer enforces exactly this, discarding any out-of-order
//     window beyond the frontier).
//   - A trip moves data, not work: ooc.Continue writes the unjoined rest
//     of the consumed level, its own words from f on, to shard files of
//     its own level and the
//     retained blocks — the sorted head of the produced level — to the
//     first shards of the next, and the out-of-core level loop joins the
//     rest like any level on disk, its output behind the head.  The
//     kernel runs in the in-core engines and in ooc.Joiner, nowhere else.
//   - The out-of-core engine's own ordering invariant (DESIGN.md §5.3)
//     carries the stream from the frontier to the end of the run.
//
// Governor accounting across the switch: a block's charge leaves the
// ledger as the writer takes the block (the consumed ones before the
// frontier at once); discarded window results are released by the pool;
// and the out-of-core engine charges only its scratch, its I/O buffers
// and the blocks between its stages, which it sizes from the headroom
// the governor has left (4 KiB each at the least) — so Peak is the
// budget plus the in-core engine's trip granularity, and Used falls back
// under budget the moment the spill lands.
package hybrid

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/ooc"
	"repro/internal/parallel"
)

// Result summarizes a hybrid run: the run record — seed tally plus the
// fold of every level, in core or spilled — and where it left memory.
type Result struct {
	core.Result
	// SpilledAtLevel is the clique size of the level that was being
	// generated when the governor tripped — the size of the head's
	// records.  0 means the whole run stayed in core.
	SpilledAtLevel int
	// OOC is the out-of-core engine's I/O accounting for the spilled
	// phase (zero when the run never spilled).
	OOC ooc.Stats
}

// Enumerate runs the enumeration cfg describes, with h's reporter, level
// observer and governor.  Lo <= 2 seeds from the edge list, a larger Lo
// from the k-clique enumerator (ReportSmall adds the maximal 1- and
// 2-cliques the seed finds, at any worker count); Workers selects the
// in-core engine and, after a spill, the out-of-core join width.  h.Gov's budget is the trip: without
// a spill Dir a trip aborts with core.ErrMemoryBudget, with one the
// tripped step goes to ooc.Continue in Dir and the run continues out of
// core (SpillBudget then applies); an unlimited governor or
// none never trips.  The emitted
// clique stream — order included — is identical to the sequential
// in-core backend's for any budget, worker count and trip point, and
// h.OnLevel sees every step, in core or spilled, once.
func Enumerate(g graph.Interface, cfg enumcfg.Config, h core.Hooks) (*Result, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	res := &Result{}
	// Only the seed phase is counted through a reporter; every later
	// clique is counted by its level's record, so the caller's reporter —
	// nil included — goes to the engines as it is.
	seed := clique.Tally{Next: h.Reporter}
	lvl, homes, err := core.Seed(cfg.Ctx, g, cfg.Lo, cfg.Workers, cfg.ReportSmall, &seed, h.Gov)
	res.Seeded(seed)
	if err != nil {
		return res, err
	}
	h.OnLevel = res.Fold(h.OnLevel)

	// The engine follows Workers; stop stops it and releases its scratch
	// charge, and is idempotent.
	var (
		eng  core.LevelEngine
		stop func()
	)
	if cfg.Workers > 1 {
		p, err := parallel.NewPool(g, parallel.Options{
			Workers:  cfg.Workers,
			Strategy: cfg.Strategy,
			Gov:      h.Gov,
		})
		if err != nil {
			return res, fmt.Errorf("hybrid: %w", err)
		}
		defer p.Close()
		eng, stop = p, p.Close
	} else {
		b := core.NewBuilder(g)
		b.Gov = h.Gov
		h.Gov.Charge(b.ScratchBytes())
		charged := true
		defer func() {
			if charged {
				h.Gov.Release(b.ScratchBytes())
			}
		}()
		eng, stop = b, func() {
			if charged {
				charged = false
				h.Gov.Release(b.ScratchBytes())
			}
		}
	}

	// The trip policy follows Dir.
	loop := core.Loop{Ctx: cfg.Ctx, Hi: cfg.Hi, Hooks: h}
	if cfg.Dir != "" {
		loop.OnTrip = func(lvl *core.Level, out core.LevelOutcome) error {
			// The engine stops before the spill, so its scratch leaves the
			// ledger before the disk loop charges its own.
			stop()
			res.SpilledAtLevel = lvl.K + 1
			var err error
			if res.OOC, err = ooc.Continue(g, cfg, h, lvl, out); err != nil {
				return fmt.Errorf("spilled at level %d: %w", lvl.K+1, err)
			}
			return nil
		}
	}
	if err := loop.Run(eng, lvl, homes); err != nil {
		return res, fmt.Errorf("hybrid: %w", err)
	}
	return res, nil
}
