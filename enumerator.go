package repro

import (
	"context"
	"fmt"
	"iter"
	"time"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/membudget"
	"repro/internal/ooc"
	"repro/internal/paraclique"
)

// ErrMemoryBudget is the sentinel wrapped by every backend's
// budget-exceeded abort (WithMemoryBudget without a spill directory).
// The hybrid backend never returns it: a tripped budget spills and
// continues instead.
var ErrMemoryBudget = membudget.ErrBudget

// Strategy selects the parallel dispatch policy.
type Strategy = enumcfg.Strategy

const (
	// Contiguous dispatches each level's sub-lists from one shared
	// canonical-order queue: best balance, no ownership.
	Contiguous = enumcfg.Contiguous
	// Affinity is the paper's policy: sub-lists stay with the worker
	// that created them, and idle workers steal only from backlogs over
	// the transfer threshold.
	Affinity = enumcfg.Affinity
)

// Reporter receives maximal cliques as they are discovered.  Emitted
// cliques are borrowed — the enumerators reuse the backing array — so a
// Reporter that retains one past its Emit call must Clone it first.
// Enumerator.Cliques has no such caveat: it yields owned copies.
type Reporter = clique.Reporter

// ReporterFunc adapts a function to the Reporter interface.
type ReporterFunc = clique.ReporterFunc

// Collector is a Reporter that copies and stores every emitted clique.
type Collector = clique.Collector

// Counter is a Reporter that only counts cliques by size, for runs whose
// full output would not fit in memory.
type Counter = clique.Counter

// NewCounter returns an empty Counter.
func NewCounter() *Counter { return clique.NewCounter() }

// Stats, when registered with WithStats, is filled by Run / Cliques /
// Paracliques.  Every regime reports through one run record: the level
// driver that ran a step emits one level record for it (the WithOnLevel
// stream, kept in Levels), and the clique and scheduling totals below are
// the fold of that stream plus the seed phase's count, computed in one
// place (internal/core.Result) — so the totals and the level events
// cannot disagree.  Levels grows while the run is under way; everything
// else is written once, when the run returns.  On cancellation or error
// the statistics up to the abort point are retained — this is what a
// Ctrl-C'd cliquer prints — and the step that was cut short is the last
// entry of Levels, counting what it delivered.
type Stats struct {
	// Backend names the execution regime that ran: "sequential",
	// "parallel", "out-of-core", "distributed",
	// "hybrid(sequential)" / "hybrid(parallel)" (annotated with
	// "->out-of-core@k" once a hybrid run spills), or "paraclique" for
	// Paracliques.  Derived from the validated configuration.
	Backend string
	// MaximalCliques counts the cliques delivered to the caller — the
	// seed phase's (maximal Lo-cliques, WithReportSmall) plus the sum of
	// Levels[].Maximal — and MaxCliqueSize is the largest size among
	// them.
	MaximalCliques int64
	MaxCliqueSize  int
	// Levels holds one entry per generation step k -> k+1, in the order
	// the steps ran.
	Levels []LevelStats
	// PeakBytes is the memory governor's high-water mark: the largest
	// byte total the run ever declared resident across every layer —
	// graph adjacency, the candidate levels' blocks, worker scratch, spill
	// I/O buffers.  Read from the governor when the run returns; reported
	// by every backend, budgeted or not.
	PeakBytes int64
	// SpilledAtLevel is the clique size the hybrid backend was
	// generating when its governor tripped and the run went out-of-core
	// (0: never spilled, or not a hybrid run).
	SpilledAtLevel int
	// Paracliques counts the paracliques Paracliques extracted.
	Paracliques int
	// SpillBytesWritten / SpillBytesRead / PeakLevelFileBytes describe
	// the out-of-core backend's I/O volume (bytes actually moved).
	// Resumed reports that the run continued a checkpoint, in which case
	// the spill counters are cumulative across the original run and the
	// resume.  Counted by the on-disk level driver as the bytes move.
	SpillBytesWritten  int64
	SpillBytesRead     int64
	PeakLevelFileBytes int64
	Resumed            bool
	// WorkerBusy is the per-worker busy seconds and Transfers the number
	// of level blocks processed away from their home worker (parallel
	// backends): sums over the level records the pool engine filled.
	WorkerBusy []float64
	Transfers  int
	// DistWorkers / DistReleases / DistWorkerDeaths describe a
	// distributed run: the worker-process count, the leases revoked
	// (expiry or death) and re-run on another worker, and the worker
	// processes that died and were respawned.  Zero outside the
	// distributed backend; a fault-free run has zero releases and
	// deaths.  Counted by the coordinator's lease scheduler.
	DistWorkers      int
	DistReleases     int
	DistWorkerDeaths int
	// Elapsed is the wall-clock run time measured by the facade.
	Elapsed time.Duration
}

// LevelStats is the public view of the one level record every driver
// emits (internal/core.LevelStats): the in-core loop fills it from the
// level blocks' own counts, the on-disk loop from its shard list.  The
// in-core engines fill the same fields with the same values for the same
// run (sequential, any worker count, either strategy), and the on-disk
// loop the same FromK, Sublists, Cliques, Maximal and Work; Transfers is
// zero outside the worker pool.
type LevelStats struct {
	FromK         int   // size of the consumed candidates
	Sublists      int   // sub-lists consumed: in core from the blocks, on disk from the shards' runs
	Cliques       int64 // candidate cliques consumed
	Maximal       int64 // maximal (FromK+1)-cliques delivered to the caller
	ResidentBytes int64 // consumed + produced level: block bytes as charged in core, encoded file bytes on disk
	Transfers     int   // pool engine: level blocks processed off their home worker
	// Work is the kernel's counted work for the step (core.Cost.Units):
	// the same in every engine and wherever a budget trips, for one bitmap
	// policy — stored bitmaps book no prefix rebuild, so they count less.
	Work int64
	// Elapsed is the step's wall time; Wait, for a step joined from shard
	// files, the time its join stage waited for decode-ahead to read them,
	// summed over workers (0 in core).
	Elapsed time.Duration
	Wait    time.Duration
}

// Enumerator is the single entry point to maximal clique enumeration: one
// run description that selects the sequential, parallel, or out-of-core
// backend from its options and executes it with cancellation and
// observability.  The zero Enumerator (NewEnumerator with no options)
// runs the full size range from Init_K = 2, in-core, on one thread, with
// memoised common-neighbor reconstruction (no bitmap kept per sub-list;
// WithStoredBitmaps is the paper's stored-bitmap policy).
//
// An Enumerator is immutable after construction and may be reused for
// any number of runs; runs sharing one Enumerator must not execute
// concurrently when a Stats sink or OnLevel observer is registered.
type Enumerator struct {
	cfg          enumcfg.Config // template; each run copies it and adds its ctx
	rep          Representation // requested graph representation
	repSet       bool           // WithGraphRepresentation was given
	gov          *membudget.Governor
	graphCharged bool // WithGraphCharged: entry charge is the caller's
	stats        *Stats
	onLevel      func(LevelStats)
	err          error // an option's own complaint, reported by the first run
}

// Option configures an Enumerator.
type Option func(*Enumerator)

// NewEnumerator builds an Enumerator from functional options.
// Configuration errors (inverted bounds, unsupported combinations) are
// reported by the first Run/Cliques/Paracliques call, so construction
// chains stay fluent.
func NewEnumerator(opts ...Option) *Enumerator {
	e := &Enumerator{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// WithBounds restricts enumeration to clique sizes in [lo, hi].  lo is
// the paper's Init_K: with lo >= 3 the k-clique seeder starts the level
// machinery at size lo (cliques smaller than lo are never generated); hi
// = 0 means unbounded above, otherwise the run stops after generating
// size-hi cliques — the paper obtains hi from a maximum clique
// computation (MaxCliqueSize).
func WithBounds(lo, hi int) Option {
	return func(e *Enumerator) { e.cfg.Lo, e.cfg.Hi = lo, hi }
}

// WithWorkers selects the parallel backend when n > 1: the streaming
// worker pool with dynamic chunk dispatch and in-order
// streaming emission.  Output order is identical to the sequential
// backend.  Combined with WithOutOfCore it sets the out-of-core
// shard-join worker count instead (equivalent to OOCWorkers).
func WithWorkers(n int) Option {
	return func(e *Enumerator) { e.cfg.Workers = n }
}

// WithStrategy picks the parallel dispatch policy (default Contiguous).
func WithStrategy(s Strategy) Option {
	return func(e *Enumerator) { e.cfg.Strategy = s }
}

// OutOfCoreOption tunes the disk backends: the out-of-core one selected
// by WithOutOfCore, the spilled phase of WithSpillover, and the
// distributed one selected by WithDistributed.
type OutOfCoreOption func(*enumcfg.Config)

// OOCWorkers joins each level's shard files on n concurrent workers
// (the CPU-bound part of the out-of-core loop).  The emitted clique
// stream is identical at any worker count: shard results are released
// in shard order by the same streaming in-order merger the parallel
// backend uses.
func OOCWorkers(n int) OutOfCoreOption {
	return func(c *enumcfg.Config) { c.Workers = n }
}

// OOCCompress is kept for source compatibility and changes nothing:
// level shards have one format, the in-core level's front-coded blocks
// under a CRC-32C each, which is already a fraction of the fixed-width
// bytes.
func OOCCompress() OutOfCoreOption {
	return func(*enumcfg.Config) {}
}

// OOCCheckpoint makes the run resumable: dir becomes a durable run
// directory holding a manifest committed at every level boundary, kept
// on cancellation (or crash) so WithResume can continue the run.  A
// successful run removes its manifest.
func OOCCheckpoint() OutOfCoreOption {
	return func(c *enumcfg.Config) { c.Checkpoint = true }
}

// WithOutOfCore selects the disk-backed backend: levels are spilled as
// files under dir (created if absent) instead of held in memory, the
// regime the paper used before moving to large shared-memory machines.
// levelBudget, when positive, aborts the run once a level's files would
// exceed that many bytes — the out-of-core analogue of the paper's
// one-week cutoff.  The backend seeds like the in-core ones (the
// k-clique seeder at the lower bound, WithReportSmall included) and
// holds the seed level in memory until it is written.  Spill files of a
// plain run are always removed, even on cancellation; with
// OOCCheckpoint the last completed level is kept for WithResume
// instead.  The knobs select parallel shard joins (OOCWorkers) and
// resumability (OOCCheckpoint).  Combined with WithMemoryBudget this
// selects the hybrid backend instead: in-core until the governor trips,
// out-of-core after (see WithSpillover).
func WithOutOfCore(dir string, levelBudget int64, knobs ...OutOfCoreOption) Option {
	return func(e *Enumerator) {
		e.cfg.Dir, e.cfg.SpillBudget = dir, levelBudget
		for _, k := range knobs {
			k(&e.cfg)
		}
	}
}

// WithResume continues the checkpointed out-of-core run whose manifest
// lives in dir (written by a WithOutOfCore + OOCCheckpoint run that was
// canceled or killed).  The graph must be the one the checkpoint was
// written for — Run verifies its fingerprint — and the record encoding
// is adopted from the manifest.  The interrupted level is re-joined from
// its beginning, so the resumed stream is exactly the uninterrupted
// stream from the first clique of the interrupted level's size on, and
// the run's Stats continue from the checkpoint (a resumed run's final
// spill counters match an uninterrupted run's).  Composes with the
// other out-of-core knobs (OOCWorkers may differ run to run).
func WithResume(dir string) Option {
	return func(e *Enumerator) { e.cfg.Dir, e.cfg.Resume = dir, true }
}

// DistWorkerCommand sets the argv the coordinator execs for each worker
// slot (default: the current binary re-executed with -worker).  The
// command must speak the worker side of the dist wire protocol on its
// stdin/stdout — `cliquer -worker` and `cliqued -worker` both do.
func DistWorkerCommand(argv ...string) OutOfCoreOption {
	return func(c *enumcfg.Config) { c.DistWorkerCmd = argv }
}

// DistLeaseTimeout bounds one shard join (default 30s): a lease overdue
// by more than this is revoked, its worker killed, and the shard
// re-leased to another worker.  Heartbeating workers extend their lease,
// so only a hung or dead worker is ever swept.
func DistLeaseTimeout(d time.Duration) OutOfCoreOption {
	return func(c *enumcfg.Config) { c.DistLeaseTimeout = d }
}

// DistShardBytes overrides the target level-shard size of a disk run (0
// = auto-sized from the consumed level and the worker count).  Smaller
// shards mean finer-grained leases: more scheduling traffic, less work
// lost per worker death.
func DistShardBytes(n int64) OutOfCoreOption {
	return func(c *enumcfg.Config) { c.ShardBytes = n }
}

// WithDistributed selects the distributed backend: a coordinator that
// executes one enumeration level at a time by leasing the level's shard
// files to n worker processes, each joining its shards against its own
// copy of the graph.  dir is the shared run directory (graph file,
// level shards, checkpoint manifest, and the final audit report all
// live there); workers are spawned over the exec/pipe transport and
// respawned if they die, with their in-flight shards re-leased — the
// emitted clique stream is byte-identical to a sequential run at any
// worker count, faults included.  n must be at least 1; the first Run
// reports anything less.  WithWorkers, WithMemoryBudget,
// and the checkpoint/resume knobs do not — the coordinator manages its
// own per-level checkpoint, and the coordinator's governor is the run's
// single accounting authority (worker scratch is held as child
// reservations).  The coordinator seeds like every other backend (the
// k-clique seeder at the lower bound, WithReportSmall included) and
// writes the seed level for the workers.
func WithDistributed(workers int, dir string, knobs ...OutOfCoreOption) Option {
	return func(e *Enumerator) {
		if workers < 1 {
			e.err = fmt.Errorf("repro: WithDistributed with %d workers (want >= 1)", workers)
		}
		e.cfg.DistWorkers = workers
		e.cfg.Dir = dir
		for _, k := range knobs {
			k(&e.cfg)
		}
	}
}

// WithMemoryBudget sets the run's memory governor budget: the bound on
// everything the run declares resident — the graph representation's
// adjacency bytes, the candidate levels' blocks, worker scratch, and
// spill I/O buffers.  On the in-core backends (sequential, parallel)
// exceeding it aborts with core.ErrMemoryBudget — the in-library
// analogue of the paper's graph-B blow-up termination.
// Combined with a spill directory (WithOutOfCore or WithSpillover) it
// instead selects the hybrid backend, which transparently continues the
// run out of core when the budget trips.
func WithMemoryBudget(bytes int64) Option {
	return func(e *Enumerator) { e.cfg.MemoryBudget = bytes }
}

// WithSpillover selects the adaptive hybrid backend explicitly: the run
// starts in core (sequential, or the streaming pool with WithWorkers)
// and, the moment the WithMemoryBudget governor trips, writes the level
// being generated and the unjoined input behind it to run-aligned shard
// files under dir and continues on the out-of-core engine — same
// byte-identical ordered clique stream either way, memory-priced while
// the run fits, disk-priced only from the level that stopped fitting.
// Requires WithMemoryBudget.  The same regime is selected implicitly
// when WithOutOfCore and WithMemoryBudget are combined.  Of the knobs,
// OOCWorkers widens the post-spill shard joins (the in-core phase
// already follows WithWorkers); OOCCheckpoint does not compose — a
// manifest cannot replay the in-core prefix.
func WithSpillover(dir string, knobs ...OutOfCoreOption) Option {
	return func(e *Enumerator) {
		e.cfg.Dir = dir
		e.cfg.Spill = true
		for _, k := range knobs {
			k(&e.cfg)
		}
	}
}

// WithGovernor runs against an externally owned memory governor instead
// of a per-run one: every layer's charges (graph adjacency, candidate
// storage, worker scratch, spill buffers) land on gov, the in-core
// backends abort with ErrMemoryBudget once gov reports Over, and the
// Stats PeakBytes reports gov's peak — which is shared with whatever
// else charges it.  This is the multi-tenancy hook: a server carves a
// membudget.Reservation out of one shared governor per admitted query
// and hands the reservation's child governor to the run, so the sum of
// all concurrent runs' residency is enforced against one budget.
//
// Mutually exclusive with WithMemoryBudget (the governor's own budget
// is the run's budget); the first Run reports the conflict.  The
// governor is not reset between runs — reuse a fresh one per run when
// per-run Peak matters.
func WithGovernor(gov *membudget.Governor) Option {
	return func(e *Enumerator) { e.gov = gov }
}

// WithGraphCharged declares that the input graph's adjacency bytes are
// already resident under the run's governor budget tree — charged by
// the caller before the run (cliqued's registry pins every loaded
// graph this way) — so the facade skips its own entry charge instead
// of counting the same bytes twice.  With a shared parent governor
// (WithGovernor over a membudget.Reservation child) this is what keeps
// the parent's Used the true resident total: one charge per loaded
// graph, not one more per active query.  A conversion requested with
// WithGraphRepresentation is still charged — the converted copy is new
// residency the caller's pin does not cover.  Stats.PeakBytes then
// reports the run's working set without the pinned graph.  Without
// this option (the default) the facade charges the graph itself, which
// is correct whenever the governor is per-run.
func WithGraphCharged() Option {
	return func(e *Enumerator) { e.graphCharged = true }
}

// WithStoredBitmaps keeps a dense prefix common-neighbor bitmap with
// every candidate sub-list — the paper's policy ("faster but requires
// keeping the common neighbors") — instead of the default, which keeps
// none and rebuilds each one from the sub-list joined just before it.
// It costs n/8 bytes per resident sub-list (several times the default's
// PeakBytes on the paper-style graphs) and buys time only on the CSR and
// Compressed representations, where a rebuild step is a row walk rather
// than a word AND.  In-core and hybrid backends only.
func WithStoredBitmaps() Option {
	return func(e *Enumerator) { e.cfg.Mode = enumcfg.CNStore }
}

// WithGraphRepresentation converts the input graph to the given
// adjacency representation before every run: Dense for raw row-AND
// speed, CSR for O(n+m) memory, Compressed for WAH rows, Auto to let the
// measured density decide.  The conversion is skipped when the graph
// already matches (so passing an already-CSR graph costs nothing), and
// conversions are per-run — the caller's graph is never mutated.
// Without this option the graph is used exactly as handed in.
func WithGraphRepresentation(rep Representation) Option {
	return func(e *Enumerator) { e.rep, e.repSet = rep, true }
}

// WithReportSmall additionally reports maximal 1-cliques (isolated
// vertices) and maximal 2-cliques when the lower bound admits them, on
// every backend and at any worker count: the seed reports them, before
// any level runs.
func WithReportSmall() Option {
	return func(e *Enumerator) { e.cfg.ReportSmall = true }
}

// WithStats registers a sink the next run fills with its statistics.
func WithStats(st *Stats) Option {
	return func(e *Enumerator) { e.stats = st }
}

// WithOnLevel registers an observer called after every generation step —
// the facade form of the per-level statistics cmd/cliquer streams with
// -stats.
func WithOnLevel(fn func(LevelStats)) Option {
	return func(e *Enumerator) { e.onLevel = fn }
}

// Run enumerates the maximal cliques of g on the configured backend,
// delivering each to r (which may be nil to count only) in
// non-decreasing order of size, canonical order within a size — the same
// stream from every backend.  It returns the number of cliques
// delivered.  Cancel ctx to abort: Run then returns the count so far and
// an error wrapping ctx.Err(), worker pools shut down cleanly, and spill
// files are removed.
func (e *Enumerator) Run(ctx context.Context, g GraphInterface, r Reporter) (int64, error) {
	cfg, err := e.runConfig(ctx)
	if err != nil {
		return 0, err
	}
	gin := g
	if g, err = e.prepareGraph(g); err != nil {
		return 0, err
	}
	rn := e.begin(cfg, gin, g)
	var out outcome
	switch cfg.Backend() {
	case enumcfg.OutOfCore:
		out.spill, err = ooc.Enumerate(g, cfg, e.diskHooks(r, rn, &out))
	case enumcfg.Distributed:
		out.dist, err = dist.Enumerate(g, cfg, e.diskHooks(r, rn, &out), nil)
		out.spill = out.dist.Stats
	default:
		out, err = e.runInCore(cfg, g, r, rn)
	}
	// A disk run's seed tally; a hybrid run's record holds its own, and
	// its spilled phase seeds nothing.
	out.Seeded(out.spill.Seeded)
	rn.end(backendName(cfg, out.spilledAt), &out)
	return out.MaximalCliques, err
}

// run is one Run or Paracliques call in flight, from begin to end — the
// only places a run starts and finishes.
type run struct {
	gov     *membudget.Governor
	st      *Stats // the WithStats sink, reset; nil when none is registered
	start   time.Time
	charged int64 // the graph bytes begin charged and end releases
}

// begin opens a run on g (gin as the caller handed it in).  One governor
// per run, charged by every layer; the first charge is the graph
// representation itself — the footprint the enumeration cannot run
// below.  A caller-supplied governor (WithGovernor) replaces the per-run
// one so a shared budget sees the charges.  WithGraphCharged skips the
// entry charge for a graph the caller already holds resident — unless
// prepareGraph converted it, in which case the copy is new residency
// regardless.
func (e *Enumerator) begin(cfg enumcfg.Config, gin, g GraphInterface) *run {
	r := &run{gov: e.gov, st: e.stats}
	if r.gov == nil {
		r.gov = membudget.New(cfg.MemoryBudget)
	}
	if !e.graphCharged || g != gin {
		r.charged = g.Bytes()
	}
	r.gov.Charge(r.charged)
	if r.st != nil {
		*r.st = Stats{}
	}
	r.start = time.Now()
	return r
}

// end closes the run: it returns the entry charge and writes the finished
// (or aborted) run into the Stats sink — the one place a Stats field other
// than Levels is written.
func (r *run) end(backend string, out *outcome) {
	r.gov.Release(r.charged)
	st := r.st
	if st == nil {
		return
	}
	st.Backend = backend
	st.MaximalCliques = out.MaximalCliques
	st.MaxCliqueSize = out.MaxCliqueSize
	st.PeakBytes = r.gov.Peak()
	st.SpilledAtLevel = out.spilledAt
	st.Paracliques = out.paracliques
	st.SpillBytesWritten = out.spill.BytesWritten
	st.SpillBytesRead = out.spill.BytesRead
	st.PeakLevelFileBytes = out.spill.PeakLevelFile
	st.Resumed = out.spill.Resumed
	st.WorkerBusy = out.WorkerBusy
	st.Transfers = out.Transfers
	st.DistWorkers = out.dist.Workers
	st.DistReleases = out.dist.Releases
	st.DistWorkerDeaths = out.dist.WorkerDeaths
	st.Elapsed = time.Since(r.start)
}

// Cliques returns a range-over-func iterator over the maximal cliques of
// g, in the same order Run reports them.  Yielded cliques are owned
// copies — unlike Reporter emissions they may be retained freely.  A
// non-nil error is yielded as the final pair if the run fails; breaking
// out of the loop cancels the underlying run and releases its resources.
//
//	for c, err := range repro.NewEnumerator(repro.WithBounds(3, 0)).Cliques(ctx, g) {
//	    if err != nil { ... }
//	    use(c) // c is yours
//	}
func (e *Enumerator) Cliques(ctx context.Context, g GraphInterface) iter.Seq2[Clique, error] {
	return func(yield func(Clique, error) bool) {
		ictx, cancel := context.WithCancel(ctx)
		defer cancel()
		ch := make(chan Clique)
		done := make(chan error, 1)
		go func() {
			_, err := e.Run(ictx, g, ReporterFunc(func(c Clique) {
				select {
				case ch <- c.Clone():
				case <-ictx.Done():
					// Consumer broke out (or the caller canceled); the
					// run aborts at its next cancellation point.
				}
			}))
			close(ch)
			done <- err
		}()
		stopped := false
		for c := range ch {
			if !stopped && !yield(c, nil) {
				stopped = true
				cancel()
				// Keep draining so the producer can reach its
				// cancellation point and exit; no goroutine outlives
				// the loop.
			}
		}
		err := <-done
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// Paracliques decomposes g into paracliques — dense near-cliques glommed
// around successive maximum cliques — with the given proportional glom
// factor in (0, 1].  It composes with the enumerator options: the lower
// bound from WithBounds (clamped to >= 3) is the minimum seed clique
// size.  On cancellation the paracliques found so far are returned with
// ctx.Err().
func (e *Enumerator) Paracliques(ctx context.Context, g GraphInterface, glom float64) ([]Paraclique, error) {
	cfg, err := e.runConfig(ctx)
	if err != nil {
		return nil, err
	}
	gin := g
	if g, err = e.prepareGraph(g); err != nil {
		return nil, err
	}
	if !(glom > 0 && glom <= 1) {
		return nil, fmt.Errorf("repro: glom %v out of (0,1]", glom)
	}
	// The run is opened and closed like Run's: extraction is its own
	// regime (maximum-clique seeds + glom growth, not the level
	// machinery), so Backend says so, and the clique counters describe
	// the seed cliques the paracliques grew from.
	rn := e.begin(cfg, gin, g)
	min := cfg.Lo
	if min < 3 {
		min = 3
	}
	ps := paraclique.Extract(g, paraclique.Options{
		Ctx:           cfg.Ctx,
		Glom:          glom,
		MinCliqueSize: min,
		Gov:           rn.gov,
	})
	out := outcome{paracliques: len(ps)}
	out.MaximalCliques = int64(len(ps))
	for _, p := range ps {
		out.MaxCliqueSize = max(out.MaxCliqueSize, p.CoreSize)
	}
	rn.end("paraclique", &out)
	if err := cfg.Ctx.Err(); err != nil {
		return ps, fmt.Errorf("repro: paraclique extraction canceled: %w", err)
	}
	return ps, nil
}

// prepareGraph applies the requested representation conversion, if any.
func (e *Enumerator) prepareGraph(g GraphInterface) (GraphInterface, error) {
	if !e.repSet {
		return g, nil
	}
	gg, err := graph.Convert(g, e.rep)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return gg, nil
}

// runConfig copies the template config, attaches the run context, and
// validates.
func (e *Enumerator) runConfig(ctx context.Context) (enumcfg.Config, error) {
	cfg := e.cfg
	cfg.Ctx = ctx
	if e.err != nil {
		return cfg, e.err
	}
	if e.gov != nil && cfg.MemoryBudget > 0 {
		return cfg, fmt.Errorf("repro: WithGovernor and WithMemoryBudget are mutually exclusive (the governor's own budget bounds the run)")
	}
	if err := cfg.Normalize(); err != nil {
		return cfg, fmt.Errorf("repro: %w", err)
	}
	return cfg, nil
}

// backendName names the regime a validated config ran as, for
// Stats.Backend: a hybrid run names its in-core engine and, once it
// spilled, the level it left memory at.
func backendName(cfg enumcfg.Config, spilledAt int) string {
	if cfg.Backend() != enumcfg.Hybrid {
		return cfg.Backend().String()
	}
	engine := "sequential"
	if cfg.Workers > 1 {
		engine = "parallel"
	}
	if spilledAt > 0 {
		return fmt.Sprintf("hybrid(%s->out-of-core@%d)", engine, spilledAt)
	}
	return "hybrid(" + engine + ")"
}

// outcome is what a backend hands back to Run: the run record and the
// regime's own counters.
type outcome struct {
	core.Result            // seed tally + the fold of the level stream
	spill       ooc.Stats  // disk I/O: out-of-core, distributed, a hybrid run's spilled phase
	spilledAt   int        // hybrid: the level being generated at the trip (0 = never)
	dist        dist.Stats // the lease scheduler's counters
	paracliques int        // Paracliques only
}

// levelSink returns the hook that hands each level record to the Stats
// sink and the WithOnLevel observer (nil when nobody listens): the one
// place the engines' record becomes the public LevelStats.
func (e *Enumerator) levelSink(st *Stats) func(core.LevelStats) {
	if st == nil && e.onLevel == nil {
		return nil
	}
	return func(ls core.LevelStats) {
		pub := LevelStats{
			FromK:         ls.FromK,
			Sublists:      ls.Sublists,
			Cliques:       ls.Cliques,
			Maximal:       ls.Maximal,
			ResidentBytes: ls.Bytes + ls.NextBytes,
			Transfers:     ls.Transfers,
			Work:          ls.Cost.Units(),
			Elapsed:       ls.Elapsed,
			Wait:          ls.Wait,
		}
		if st != nil {
			st.Levels = append(st.Levels, pub)
		}
		if e.onLevel != nil {
			e.onLevel(pub)
		}
	}
}

// runInCore is the sequential, parallel and hybrid backends: one in-core
// level loop whose engine follows cfg.Workers and whose budget-trip
// policy follows cfg.Dir (abort without a spill directory, spill to disk
// and continue out of core with one).  hybrid.Enumerate keeps the run
// record; a nil reporter reaches the engines as nil, so a count-only
// pooled run copies no emission.
func (e *Enumerator) runInCore(cfg enumcfg.Config, g GraphInterface, r Reporter, rn *run) (out outcome, err error) {
	res, err := hybrid.Enumerate(g, cfg, core.Hooks{Reporter: r, OnLevel: e.levelSink(rn.st), Gov: rn.gov})
	if res != nil {
		out.Result, out.spill, out.spilledAt = res.Result, res.OOC, res.SpilledAtLevel
	}
	return out, err
}

// diskHooks returns the hooks of a disk run (out-of-core or distributed)
// recorded in out: the caller's reporter as it is, and the level stream
// folded before it reaches the Stats sink and the observer.
func (e *Enumerator) diskHooks(r Reporter, rn *run, out *outcome) core.Hooks {
	return core.Hooks{Reporter: r, OnLevel: out.Fold(e.levelSink(rn.st)), Gov: rn.gov}
}
