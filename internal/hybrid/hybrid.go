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
// and loops here.  With a spill Dir, the moment the
// governor trips it drains the level being generated to run-aligned
// out-of-core shard files and hands the run to the disk-backed engine:
// memory-priced while the run fits, disk-priced only from the level that
// stopped fitting.  Without one, a trip aborts with core.ErrMemoryBudget.
//
// The drained stream is byte-identical to a pure in-core run's:
//
//   - The in-core backends emit, and retain candidates, in canonical
//     order, and outputs of input sub-list i sort strictly before
//     outputs of input j > i.  A trip therefore yields a consistent cut:
//     for some frontier f (a block and a record in it), everything for
//     inputs before f has been emitted and retained; inputs from f on are
//     untouched (the parallel pool's sched.Sequencer enforces exactly
//     this, discarding any out-of-order window beyond the frontier).
//   - The drain hands the retained blocks — the sorted head of the
//     produced level — to the out-of-core level writer as they are, then
//     joins the remaining inputs with the same kernel, which emits their
//     maximal cliques in order and seals the surviving candidates into
//     blocks that follow the head to the same writer.
//   - The produced level is then a complete, sorted, run-aligned level
//     file, exactly what ooc.Continue expects; the out-of-core engine's
//     own ordering invariant (DESIGN.md §5.3) carries the stream to the
//     end of the run.
//
// Governor accounting across the switch: a block's charge goes to the
// writer with the block, which releases it once the block's records are
// in the file; discarded window results are released by the pool; a
// consumed block is released as soon as the drain has joined past it;
// and the out-of-core engine charges only its scratch, its I/O buffers
// and the blocks between its stages, which it sizes from the headroom
// the governor has left (4 KiB each at the least) — so Peak is the
// budget plus the in-core engine's trip granularity, and Used falls back
// under budget the moment the spill lands.
package hybrid

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/ooc"
	"repro/internal/parallel"
)

// Result summarizes a hybrid run: the run record — seed tally plus the
// fold of every level, in core or spilled — and where it left memory.
type Result struct {
	core.Result
	// SpilledAtLevel is the clique size of the level that was being
	// generated when the governor tripped — the size of the records the
	// drain wrote.  0 means the whole run stayed in core.
	SpilledAtLevel int
	// OOC is the out-of-core engine's I/O accounting for the spilled
	// phase (zero when the run never spilled).
	OOC ooc.Stats
}

// runner is one Enumerate invocation's state.
type runner struct {
	g     graph.Interface
	cfg   enumcfg.Config
	hooks core.Hooks          // the caller's, OnLevel behind res's fold
	gov   *membudget.Governor // hooks.Gov: through the runner, budgetpair pairs a charge with its release in another method
	bits  *bitset.Pool
	res   *Result
}

// Enumerate runs the enumeration cfg describes, with h's reporter, level
// observer and governor.  Lo <= 2 seeds from the edge list, a larger Lo
// from the k-clique enumerator (ReportSmall adds the maximal 1- and
// 2-cliques the seed finds, at any worker count); Workers selects the
// in-core engine and, after a spill, the out-of-core join width; Mode is
// the in-core phase's bitmap policy.  h.Gov's budget is the trip: without
// a spill Dir a trip aborts with core.ErrMemoryBudget, with one the run
// drains to Dir and continues out of core (SpillBudget and OOCCompress
// then apply); an unlimited governor or none never trips.  The emitted
// clique stream — order included — is identical to the sequential
// in-core backend's for any budget, worker count and trip point, and
// h.OnLevel sees every step, in core or spilled, once.
func Enumerate(g graph.Interface, cfg enumcfg.Config, h core.Hooks) (*Result, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	r := &runner{g: g, cfg: cfg, hooks: h, gov: h.Gov, bits: bitset.NewPool(g.N()), res: &Result{}}
	r.hooks.OnLevel = r.res.Fold(h.OnLevel)
	return r.res, r.run()
}

// run seeds on Workers goroutines, picks the level engine from Workers,
// and drives the shared level loop with the trip policy Dir selects.
func (h *runner) run() error {
	g, cfg := h.g, h.cfg
	// Only the seed phase is counted through a reporter; every later
	// clique is counted by its level's record, so the caller's reporter —
	// nil included — goes to the engines as it is.
	seed := clique.Tally{Next: h.hooks.Reporter}
	lvl, homes, err := core.Seed(cfg.Ctx, g, cfg.Lo, cfg.Mode, cfg.Workers, cfg.ReportSmall, &seed)
	h.res.Seeded(seed)
	if err != nil {
		return err
	}

	var (
		eng  core.LevelEngine
		stop func() // stops the engine and releases its scratch charge; idempotent
	)
	if cfg.Workers > 1 {
		p, err := parallel.NewPool(g, parallel.Options{
			Workers:  cfg.Workers,
			Mode:     cfg.Mode,
			Strategy: cfg.Strategy,
			Gov:      h.gov,
		})
		if err != nil {
			return fmt.Errorf("hybrid: %w", err)
		}
		eng, stop = p, p.Close
	} else {
		b := core.NewBuilderMode(g, cfg.Mode, h.bits)
		b.Gov = h.gov
		h.gov.Charge(b.ScratchBytes())
		stopped := false
		eng, stop = b, func() {
			if !stopped {
				stopped = true
				h.gov.Release(b.ScratchBytes())
			}
		}
	}
	defer stop()

	loop := core.Loop{Ctx: cfg.Ctx, Hi: cfg.Hi, Hooks: h.hooks}
	if cfg.Dir != "" {
		loop.OnTrip = func(lvl *core.Level, out core.LevelOutcome) error {
			// Stop the engine before the serial drain so its scratch
			// leaves the accounting.
			stop()
			return h.drain(lvl, out)
		}
	}
	if err := loop.Run(eng, lvl, homes); err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	return nil
}

// drain is the spill trip policy: it switches the run out of core
// mid-step.  lvl is the consumed level (size k-1); out.Next holds the
// produced k-sub-lists retained for inputs before the trip frontier, in
// canonical order (the head); lvl from out.Frontier on is the unjoined
// input (the rest).  The produced level leaves for disk as one sorted
// stream of blocks handed to the out-of-core writer — the head blocks as
// they are, then the blocks the kernel seals joining the rest, which
// emits their maximal cliques in order — and ooc.Continue runs the level
// loop from there.  Both levels' governor charges are drain's to settle,
// on every path; a block's passes to the writer with the block.
func (h *runner) drain(lvl *core.Level, out core.LevelOutcome) error {
	g, ctx := h.g, h.cfg.Ctx
	k := lvl.K + 1 // size of the records being drained
	h.res.SpilledAtLevel = k
	head := out.Next
	st := out.Stats
	rawHint := (st.NextCl + st.Cliques) * 4 * int64(k)

	// resident is what the two levels still hold against the governor:
	// head blocks leave it as they are handed to the writer, consumed
	// blocks as the drain join passes them — the rest all at once on an
	// abort.
	resident := st.Bytes + st.NextBytes
	// db joins the un-drained inputs; its output goes to disk, so it keeps
	// no bitmaps whatever the in-core mode was.  stepDone closes the
	// drained step's record, once: the in-core part plus what db added,
	// with the produced level on disk and not resident.
	db := core.NewBuilderMode(g, core.CNRecompute, h.bits)
	db.Gov = h.gov
	observed := false
	stepDone := func() {
		if observed {
			return
		}
		observed = true
		st.NextSub, st.NextCl, st.NextBytes = 0, 0, 0
		st.Maximal += db.Maximal
		st.Dropped += db.Dropped
		st.Cost.Add(db.Cost)
		st.Spilled = true
		h.hooks.OnLevel(st)
	}
	ost, err := ooc.Continue(g, h.cfg, h.hooks, k, rawHint, func(write func([]core.Block) error) error {
		for i := range head.Sub {
			if ctx.Err() != nil {
				return fmt.Errorf("canceled draining level %d: %w", k, ctx.Err())
			}
			resident -= head.Sub[i].Bytes()
			if err := write(head.Sub[i : i+1]); err != nil {
				return err
			}
		}
		// Join the un-drained inputs with the kernel: maximal cliques keep
		// flowing to the reporter in canonical order, and what it seals
		// goes to the writer a chunk at a time, behind the head.  Inputs
		// whose bitmaps were already consumed (a discarded parallel window)
		// reconstruct their prefix CN from adjacency rows.  A consumed block
		// is dead once joined, so it leaves the ledger as the join passes
		// it — the ones before the frontier right away — and the drain's
		// own output in flight is paid for by the input it came from.
		h.gov.Charge(db.ScratchBytes())
		defer func() { h.gov.Release(db.ScratchBytes()) }()
		db.Reset()
		defer db.Abandon(0) // what was sealed and not handed over, on an abort
		flush := func() error {
			st.Maximal += db.Maximal
			st.Dropped += db.Dropped
			st.Cost.Add(db.Cost)
			err := write(db.Since(0))
			db.Reset() // safe: write returned, so the writer is done with every batch before
			return err
		}
		retire := func(blocks []core.Block) {
			for i := range blocks {
				h.gov.Release(blocks[i].Bytes())
				resident -= blocks[i].Bytes()
			}
		}
		f := out.Frontier
		retire(lvl.Sub[:f.Block])
		for bi := f.Block; bi < len(lvl.Sub); bi++ {
			if ctx.Err() != nil {
				return fmt.Errorf("canceled draining level %d: %w", k, ctx.Err())
			}
			from := core.Cursor{}
			if bi == f.Block {
				from.Rec = f.Rec
			}
			in := core.Level{K: lvl.K, Sub: lvl.Sub[bi : bi+1]}
			for s := range in.From(from) {
				db.ProcessSubList(s, h.hooks.Reporter)
				if db.Mark() > 0 {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			retire(in.Sub)
		}
		if err := flush(); err != nil {
			return err
		}
		// The drained step k-1 -> k is complete here, before the
		// out-of-core loop reports any later level, so observers see the
		// steps in generation order.
		stepDone()
		return nil
	})
	// A drain aborted mid-feed (cancellation, I/O error) abandons both
	// levels with the run, but the ledger still balances — and the cut
	// step is still observed, like any other.
	h.gov.Release(resident)
	stepDone()
	h.res.OOC = ost
	if err != nil {
		return fmt.Errorf("spilled at level %d: %w", k, err)
	}
	return nil
}
