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
	"context"
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

// Options configures Enumerate.
type Options struct {
	// Ctx, when non-nil, cancels the run at the usual backend
	// cancellation points (per sub-list batch in core, per chunk in the
	// pool, per record batch out of core).
	Ctx context.Context
	// Lo is the smallest clique size of interest (the paper's Init_K,
	// default 2): at Lo <= 2 the run seeds from the edge list, above it
	// the k-clique enumerator seeds the candidate lists and reports the
	// maximal Lo-cliques.  Hi, when positive, stops the run after cliques
	// of size Hi — the maximum clique bound of the paper's pipeline.
	Lo, Hi int
	// Mode is the common-neighbor bitmap policy of the in-core phase (the
	// zero value keeps no bitmaps, as the out-of-core phase does anyway).
	Mode core.CNMode
	// Workers selects the in-core engine (1 = sequential, > 1 = the
	// streaming pool) and is reused as the out-of-core join width after
	// a spill.
	Workers int
	// Strategy is the pool dispatch policy (Workers > 1).
	Strategy enumcfg.Strategy
	// ReportSmall additionally reports maximal 1-cliques (isolated
	// vertices) and 2-cliques (edges with no common neighbor) when
	// Lo <= 2, at any worker count: they are emitted by the seed, before
	// any level work, so neither the engine nor a later spill affects
	// them.
	ReportSmall bool
	// Dir is the spill directory the out-of-core phase uses.  It selects
	// the trip policy: empty, a tripped budget aborts the run.
	Dir string
	// SpillBudget, when positive, bounds one out-of-core level's file
	// bytes after a spill, as in ooc.Options.MaxLevelBytes.
	SpillBudget int64
	// Compress delta-varint encodes spilled level records.
	Compress bool
	// Gov is the run's shared memory governor; its budget is the spill
	// trigger.  An unlimited governor (budget 0) or none never spills.
	Gov *membudget.Governor
	// Reporter receives every maximal clique, in the same ordered stream
	// a pure in-core run delivers.  nil counts only: no phase then copies
	// or buffers an emission.
	Reporter clique.Reporter
	// OnLevel observes each generation step, in-core or spilled (Spilled
	// set; Bytes/NextBytes are then level-file bytes): the in-core loop,
	// the drain and the disk loop all report through this one hook.
	OnLevel func(core.LevelStats)
}

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

// OptionsFromConfig derives hybrid Options from the unified backend
// config.  Reporter, OnLevel and Gov are left for the caller.
func OptionsFromConfig(c enumcfg.Config) Options {
	return Options{
		Ctx:         c.Ctx,
		Lo:          c.Lo,
		Hi:          c.Hi,
		Mode:        c.Mode,
		Workers:     c.Workers,
		Strategy:    c.Strategy,
		ReportSmall: c.ReportSmall,
		Dir:         c.Dir,
		SpillBudget: c.SpillBudget,
		Compress:    c.OOCCompress,
	}
}

// runner is one Enumerate invocation's state.
type runner struct {
	g       graph.Interface
	opts    Options
	gov     *membudget.Governor
	bits    *bitset.Pool
	res     *Result
	onLevel func(core.LevelStats) // res's fold, then opts.OnLevel
}

// Enumerate runs the enumeration.  The emitted clique stream — order
// included — is identical to the sequential in-core backend's for any
// budget, worker count and trip point.
func Enumerate(g graph.Interface, opts Options) (*Result, error) {
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Lo == 0 {
		opts.Lo = 2
	}
	if err := enumcfg.CheckBounds(opts.Lo, opts.Hi); err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	if err := enumcfg.CheckMode(opts.Mode); err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	h := &runner{
		g:    g,
		opts: opts,
		gov:  opts.Gov,
		bits: bitset.NewPool(g.N()),
		res:  &Result{},
	}
	h.onLevel = h.res.Fold(opts.OnLevel)
	return h.res, h.run()
}

// run seeds on Workers goroutines, picks the level engine from Workers,
// and drives the shared level loop with the trip policy Dir selects.
func (h *runner) run() error {
	g, opts := h.g, h.opts
	// Only the seed phase is counted through a reporter; every later
	// clique is counted by its level's record, so the caller's reporter —
	// nil included — goes to the engines as it is.
	seed := clique.Tally{Next: opts.Reporter}
	lvl, homes, err := core.Seed(opts.Ctx, g, opts.Lo, opts.Mode, opts.Workers, opts.ReportSmall, &seed)
	h.res.Seeded(seed)
	if err != nil {
		return err
	}

	var (
		eng  core.LevelEngine
		stop func() // stops the engine and releases its scratch charge; idempotent
	)
	if opts.Workers > 1 {
		p, err := parallel.NewPool(g, parallel.Options{
			Workers:  opts.Workers,
			Mode:     opts.Mode,
			Strategy: opts.Strategy,
			Gov:      h.gov,
		})
		if err != nil {
			return fmt.Errorf("hybrid: %w", err)
		}
		eng, stop = p, p.Close
	} else {
		b := core.NewBuilderMode(g, opts.Mode, h.bits)
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

	loop := core.Loop{
		Ctx:      opts.Ctx,
		Hi:       opts.Hi,
		Gov:      h.gov,
		Reporter: opts.Reporter,
		OnLevel:  h.onLevel,
	}
	if opts.Dir != "" {
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
	g, opts := h.g, h.opts
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
	oocOpts := ooc.Options{
		Ctx:           opts.Ctx,
		Dir:           opts.Dir,
		Reporter:      opts.Reporter,
		MaxK:          opts.Hi,
		MaxLevelBytes: opts.SpillBudget,
		Workers:       opts.Workers,
		Compress:      opts.Compress,
		Gov:           h.gov,
		OnLevel:       h.onLevel,
	}
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
		h.onLevel(st)
	}
	ost, err := ooc.Continue(g, oocOpts, k, rawHint, func(write func([]core.Block) error) error {
		for i := range head.Sub {
			if opts.Ctx.Err() != nil {
				return fmt.Errorf("canceled draining level %d: %w", k, opts.Ctx.Err())
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
			if opts.Ctx.Err() != nil {
				return fmt.Errorf("canceled draining level %d: %w", k, opts.Ctx.Err())
			}
			from := core.Cursor{}
			if bi == f.Block {
				from.Rec = f.Rec
			}
			in := core.Level{K: lvl.K, Sub: lvl.Sub[bi : bi+1]}
			for s := range in.From(from) {
				db.ProcessSubList(s, opts.Reporter)
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
