// Package parallel is the multithreaded Clique Enumerator: the paper's
// level-synchronous execution scheme, coordinated by the centralized
// dynamic scheduler of package sched.
//
// A worker's goroutine lives for one level and its scratch for the run:
// every level starts one goroutine per worker, which pulls chunks of
// level blocks and returns when the level is exhausted for it, while the
// worker's builder — its universe and arena — is kept from level to level.
// The block (core.Block, a self-contained stretch of front-coded
// sub-lists) is the unit of dispatch, of ownership and of in-order
// release.  Within a level the scheduler (sched.Dispatcher)
// hands out chunks dynamically — workers pull more work as they finish,
// so load-estimation error and skewed block costs are absorbed inside the
// level instead of stretching a bulk-synchronous barrier.  Two dispatch
// strategies are provided:
//
//   - Contiguous: one canonical-order queue; any worker pulls the next
//     contiguous chunk.  Best balance, no ownership.
//   - Affinity: every block is queued on the worker that created it
//     (creator ownership starts at the seed phase); an idle worker steals
//     from the heaviest backlog only while the backlog exceeds the
//     sched.Policy threshold — the paper's transfer rule applied
//     continuously, minimizing remote-memory traffic on ccNUMA machines.
//
// The pool is a level engine (core.LevelEngine): hybrid.Enumerate seeds
// on the pool's worker count (core.Seed shards vertex ranges, so the
// Lo >= 3 seed phase does not serialize the run, and records creator
// ownership for the Affinity strategy's first level) and drives it
// through the shared level loop, core.Loop.
//
// Emission is sharded per worker and merged by a streaming in-order
// merger: each joined block's cliques and output blocks are released as
// soon as every earlier block of the level has been, reproducing the
// exact sequential emission order (full canonical order, for both
// strategies) while buffering only the out-of-order window rather than
// the whole level.
//
// The pool charges the run's memory governor (package membudget) like
// every other layer: per-worker builder scratch at pool start, each
// output block when it is sealed (through core.Builder), each
// merge-window emission copy between the join and its in-order release,
// and its own per-block bookkeeping (loads, homes, block lists, window
// slots — a few KiB a level) while it holds it.  A configured budget is
// enforced at block granularity: every worker polls the governor before
// each sub-list join and charges at each seal, so a trip overshoots by at
// most one sealed block (core.MaxBlockBytes) plus one join's emissions
// per worker.  A worker that sees the trip abandons the block it is
// joining — its partial output is released, the block stays untouched
// input — the window drains through the sched.Sequencer, and the level
// stops at a consistent cut between two blocks.  What happens next is the
// level loop's trip policy (core.Loop): without a spill directory the run
// aborts with core.ErrMemoryBudget, the hybrid backend writes the cut to disk and
// continues out of core.
//
// EnumerateBarrier retains the previous bulk-synchronous implementation
// (one static assignment per level, emissions buffered until the
// barrier) as the reference baseline for benchmarks.
package parallel

import (
	"context"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/sched"
)

// Strategy selects the dispatch policy.  The canonical definition lives
// in package enumcfg, shared by every backend and the facade.
type Strategy = enumcfg.Strategy

const (
	// Contiguous dispatches each level's sub-lists from one shared
	// canonical-order queue.
	Contiguous = enumcfg.Contiguous
	// Affinity keeps creator ownership and applies threshold stealing.
	Affinity = enumcfg.Affinity
)

// Options configures NewPool and EnumerateBarrier.  The pool reads
// Workers, Strategy, Policy and Gov, and validates Lo and Hi; the
// rest of a run's description is the level loop's (core.Loop).
type Options struct {
	// Ctx, when non-nil, cancels EnumerateBarrier between levels; it
	// returns the partial Result with an error wrapping ctx.Err().
	Ctx context.Context
	// Workers is the number of worker threads; must be >= 1.
	Workers int
	// Lo is the seed size (the paper's Init_K, default 2); Hi, when
	// positive, stops after cliques of size Hi.
	Lo, Hi int
	// Strategy selects the dispatch policy (default Contiguous).
	Strategy Strategy
	// Policy tunes Affinity-mode stealing.
	Policy sched.Policy
	// Gov, when non-nil, is the shared memory governor every layer of
	// the run charges (level blocks + worker scratch + merge-window copies
	// + the pool's per-block bookkeeping); once it reports Over the level
	// stops at a consistent cut and the loop's trip policy decides (the
	// barrier aborts with an error wrapping core.ErrMemoryBudget).  nil
	// runs unaccounted.
	Gov *membudget.Governor
	// Reporter receives EnumerateBarrier's maximal cliques: canonical
	// order (non-decreasing size; lexicographic within a size) with
	// Contiguous, size order only with Affinity.  The pool itself delivers
	// full canonical order with either strategy.  May be nil.
	Reporter clique.Reporter
	// OnLevel observes EnumerateBarrier's per-level statistics.
	OnLevel func(core.LevelStats)
}

// checkOptions validates opts and applies defaults.  Shared by NewPool
// and EnumerateBarrier.
func checkOptions(opts *Options) error {
	if opts.Workers < 1 {
		return fmt.Errorf("parallel: %d workers", opts.Workers)
	}
	if opts.Lo == 0 {
		opts.Lo = 2
	}
	if err := enumcfg.CheckBounds(opts.Lo, opts.Hi); err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	return nil
}

// Pool is the streaming worker pool with its level-merge machinery: the
// parallel core.LevelEngine.  A Pool is bound to one graph; levels must be
// run one at a time.  Its builders live for the run, its goroutines for a
// level.
type Pool struct {
	g        graph.Interface
	opts     Options
	builders []*core.Builder // one per worker; reset per level, so scratch and chunks are allocated once
	m        *merger
	words    int64
	loads    []int64 // reused across levels; each level ends before reuse
	held     int64   // bookkeeping bytes charged to the governor right now
	closed   bool
}

// NewPool validates opts, builds one builder per worker, and charges the
// governor with their scratch.  Close must be called to release it.
func NewPool(g graph.Interface, opts Options) (*Pool, error) {
	if err := checkOptions(&opts); err != nil {
		return nil, err
	}
	p := &Pool{
		g:     g,
		opts:  opts,
		words: int64((g.N() + 63) / 64),
	}
	p.m = &merger{gov: opts.Gov}
	p.builders = make([]*core.Builder, opts.Workers)
	for w := range p.builders {
		b := core.NewBuilder(g)
		b.Gov = opts.Gov
		opts.Gov.Charge(b.ScratchBytes())
		p.builders[w] = b
	}
	return p, nil
}

// Close releases the governor's scratch and bookkeeping charges.
// Idempotent.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, b := range p.builders {
		p.opts.Gov.Release(b.ScratchBytes())
	}
	p.hold(0)
}

// Bookkeeping sizes: what the pool keeps per block of a level beside the
// block's own words.  listBytes is an entry of the level's list, the
// block header and its home; runBytes is what a block of the level being
// joined adds — its load, its dispatcher queue entry, its sequencer slot
// (a pointer and a presence flag) and its result.
const (
	listBytes = core.BlockHeaderBytes + 4
	runBytes  = 8 + 8 + 8 + 1 + int64(unsafe.Sizeof(blockResult{}))
)

// hold makes n the bookkeeping bytes the pool has charged: what its
// per-block arrays for the consumed and the produced level occupy.  It
// is re-stated at every level boundary and zeroed by Close, so the
// charge stays the pool's own and a caller's level ledger balances
// without knowing about it.
func (p *Pool) hold(n int64) {
	p.opts.Gov.Charge(n - p.held)
	p.opts.Gov.Release(p.held - n)
	p.held = n
}

// dispatcher hands the level's blocks out by the pool's strategy, each
// block's load read off its header, in chunks of the sched grain.
func (p *Pool) dispatcher(lvl *core.Level, homes []int32) *sched.Dispatcher {
	w, items := len(p.builders), len(lvl.Sub)
	if cap(p.loads) < items {
		p.loads = make([]int64, items)
	}
	loads := p.loads[:items]
	for i := range lvl.Sub {
		loads[i] = lvl.Sub[i].Load(p.words)
	}
	grain := sched.ChunkGrain(loads, w, sched.DefaultChunksPerWorker)
	if p.opts.Strategy == Affinity {
		return sched.NewAffinityDispatcher(loads, homes, w, p.opts.Policy, grain)
	}
	return sched.NewContiguousDispatcher(loads, w, grain)
}

// RunLevel drives one level through the pool: it starts a goroutine per
// builder, then sleeps until they have all returned, the level barrier.
// Result merging is decentralized — workers deposit block results
// straight into the shared streaming merger — so the coordinator costs no
// CPU while the level runs, which matters when workers already
// oversubscribe the cores.
// trip, when non-nil, is polled by workers before every join; once it
// returns true the level stops early with the consistent-cut semantics
// documented on core.LevelOutcome: every deposited-but-unreleased result
// beyond the frontier is discarded and its governor charges reconciled.
func (p *Pool) RunLevel(ctx context.Context, lvl *core.Level, homes []int32,
	rep clique.Reporter, trip func() bool) core.LevelOutcome {
	w := len(p.builders)
	items := len(lvl.Sub)
	st := lvl.Consumed()
	st.WorkerBusy, st.WorkerCost = make([]float64, w), make([]int64, w)
	disp := p.dispatcher(lvl, homes)
	consumed := int64(items) * (listBytes + runBytes)
	p.hold(consumed)
	words := 0
	for i := range lvl.Sub {
		words += len(lvl.Sub[i].Words())
	}

	// Neighbouring output blocks of one worker are coalesced up to about
	// one part in 64 per worker of the level they come from: small enough
	// that the next level still has blocks to balance, large enough that a
	// shrinking level does not keep the block count of its peak.
	p.m.reset(items, lvl.K+1, max(words/(64*w), 64), rep)
	job := levelJob{
		ctx:     ctx,
		lvl:     lvl,
		disp:    disp,
		merger:  p.m,
		trip:    trip,
		collect: rep != nil,
	}
	var wg sync.WaitGroup
	for i, b := range p.builders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			busy, units := job.work(i, b)
			st.WorkerBusy[i], st.WorkerCost[i] = busy.Seconds(), units
		}()
	}
	wg.Wait()

	// The step counts what was released: a stopped level's work beyond
	// its frontier is joined again, or never, and WorkerCost alone
	// counts it.
	st.Maximal, st.Dropped, st.Cost = p.m.maximal, p.m.dropped, p.m.cost
	st.Transfers = disp.Transfers()
	st.Chunks = disp.Chunks()
	out := core.LevelOutcome{
		Next:     p.m.next,
		Homes:    p.m.homes,
		Frontier: core.Cursor{Block: p.m.seq.Released()},
	}
	if out.Frontier.Block < items {
		// The level stopped early.  The only two ways that happens are a
		// context cancellation and the trip predicate, so if the context
		// is clean this WAS a trip — decided structurally, never by
		// re-polling trip(): the discard below (and releases during the
		// level) can flip an Over()-based predicate back under budget,
		// and a tripped level misread as complete would silently drop
		// every input at or beyond the frontier.
		out.Tripped = trip != nil && (ctx == nil || ctx.Err() == nil)
		// Reconcile the window: everything deposited beyond the frontier
		// is discarded — those inputs will be re-joined (on disk, after a
		// hybrid spill) or abandoned (abort paths), so their outputs must not
		// linger in the accounting.
		p.m.discardPending()
	}
	// The produced level's list and homes are the pool's to account for
	// until the next level (or Close) re-states the charge.
	p.hold(consumed + int64(cap(out.Next.Sub))*listBytes)
	st.Held = p.held
	st.NextSub = out.Next.Sublists()
	st.NextCl = out.Next.Cliques()
	st.NextBytes = out.Next.Bytes()
	out.Stats = st
	return out
}

// blockResult is one joined input block's outputs: the blocks of the next
// level it produced (a snapshot of the worker builder's output list), the
// kernel's counts for it and, when collecting, the maximal cliques it
// emitted, flattened into one vertex arena (clique i is
// verts[off[i-1]:off[i]]).
type blockResult struct {
	worker           int32
	next             []core.Block
	verts            []int
	off              []int32
	maximal, dropped int64
	cost             core.Cost
}

// merger is the streaming merge point for per-worker outputs: block
// results arrive in any order and each one is released — through a
// sched.Sequencer, the in-order frontier shared with the out-of-core
// shard merger — as soon as every earlier block of the level has been
// released.  Emission order is therefore exactly the sequential
// enumeration order, while only the out-of-order window is buffered — not
// the whole level, as the barrier implementation must.  The window's
// emission copies are governor-charged between the join and the release,
// so "merge-window buffers" are part of what the budget means.
type merger struct {
	rep      clique.Reporter
	gov      *membudget.Governor
	seq      *sched.Sequencer[*blockResult]
	next     *core.Level
	homes    []int32
	maxWords int // coalescing bound for neighbouring output blocks

	maximal, dropped int64 // of the blocks released so far
	cost             core.Cost
}

// reset prepares the merger for a level of `items` blocks producing
// cliques of size nextK.
func (m *merger) reset(items, nextK, maxWords int, rep clique.Reporter) {
	m.rep = rep
	if m.seq == nil {
		m.seq = sched.NewSequencer(items, m.release)
	} else {
		m.seq.Reset(items)
	}
	m.next = &core.Level{K: nextK}
	m.homes = nil
	m.maxWords = maxWords
	m.maximal, m.dropped, m.cost = 0, 0, core.Cost{}
}

// release delivers one input block's outputs; the sequencer calls it in
// exact block order — under its lock: emission is inherently serial (one
// ordered output stream), so the lock adds no parallelism loss beyond
// that — and drops the result afterwards, so the level holds only the
// out-of-order window.  The counts accrue on release, not deposit, so a
// stopped level counts the work it delivered: the frontier stops at the
// first unprocessed block, and everything deposited beyond it is
// discarded, not counted.
func (m *merger) release(_ int, r *blockResult) {
	m.maximal += r.maximal
	m.dropped += r.dropped
	m.cost.Add(r.cost)
	if m.rep != nil {
		start := int32(0)
		for _, end := range r.off {
			m.rep.Emit(clique.Clique(r.verts[start:end]))
			start = end
		}
		m.gov.Release(8 * int64(len(r.verts)))
	}
	// Blocks one worker wrote back to back are one stretch of memory and
	// coalesce; homes follow the blocks the level really grew by.
	for range m.next.Append(m.maxWords, r.next...) {
		m.homes = append(m.homes, r.worker)
	}
}

// discardPending reconciles the governor for every deposited-but-unreleased
// result of a level that stopped early: sealed blocks (charged at seal
// time) and buffered emission copies are released.  The corresponding
// inputs become plain input again.
func (m *merger) discardPending() {
	m.seq.DrainPending(func(_ int, r *blockResult) {
		m.gov.Release(8 * int64(len(r.verts)))
		core.DiscardBlocks(r.next, m.gov)
	})
}

// levelJob is one level's work order, shared by the level's goroutines.
type levelJob struct {
	ctx     context.Context // nil = never canceled
	lvl     *core.Level
	disp    *sched.Dispatcher
	merger  *merger
	trip    func() bool // nil = never trips
	collect bool
}

// work is worker w's share of the level, joined with its builder b: it
// pulls chunks from the dispatcher until the level is exhausted for it,
// depositing one result per joined block, and returns its busy time and
// the Cost units of every join it ran, abandoned ones included.
func (job *levelJob) work(w int, b *core.Builder) (busy time.Duration, units int64) {
	b.Reset()
	for {
		// Cancellation / governor-trip point: a stopped level is no
		// longer pulled, every worker returns to the level barrier, and
		// the pool stays reusable — for a clean shutdown on cancel, for
		// the hand-off to disk on a trip.
		if job.ctx != nil && job.ctx.Err() != nil {
			return
		}
		if job.trip != nil && job.trip() {
			return
		}
		chunk, ok := job.disp.Next(w)
		if !ok {
			return
		}
		t0 := time.Now()
		for _, item := range chunk.Items {
			res := job.join(w, b, item)
			units += b.Cost.Units()
			if res == nil {
				// Tripped inside the block: it stays untouched input
				// beyond the frontier, like the rest of the chunk and
				// like a chunk nobody pulled.
				return busy + time.Since(t0), units
			}
			job.merger.seq.Deposit(item, res)
		}
		busy += time.Since(t0)
	}
}

// join runs one input block through worker w's builder b and returns its
// outputs with the counts the builder kept for it alone, or nil when the
// budget tripped before the block was finished: the budget is polled
// before every join, and what the block had produced so far is given
// back.
func (job *levelJob) join(w int, b *core.Builder, item int) *blockResult {
	gov := job.merger.gov
	res := &blockResult{worker: int32(w)}
	var rep clique.Reporter
	if job.collect {
		// Emissions are copied into the result's arena, charged to the
		// governor until their in-order release.
		rep = clique.ReporterFunc(func(c clique.Clique) {
			res.verts = append(res.verts, c...)
			res.off = append(res.off, int32(len(res.verts)))
			gov.Charge(8 * int64(len(c)))
		})
	}
	mark := b.Mark()
	b.Maximal, b.Dropped, b.Cost = 0, 0, core.Cost{}
	for s := range job.lvl.Sub[item].Records(job.lvl.K) {
		if job.trip != nil && job.trip() {
			gov.Release(8 * int64(len(res.verts)))
			b.Abandon(mark)
			return nil
		}
		b.ProcessSubList(s, rep)
	}
	res.next = b.Since(mark)
	res.maximal, res.dropped, res.cost = b.Maximal, b.Dropped, b.Cost
	return res
}
