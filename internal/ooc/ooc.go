// Package ooc implements the out-of-core, level-wise maximal clique
// enumerator: the approach the paper used *before* moving to large
// shared-memory machines.  Section 1: "To deal with such large memory
// requirements we have previously developed an out-of-core algorithm
// based on the recursive branching procedure suggested by Kose et al ...
// the algorithm could not finish after one week of execution ...
// Intensive disk I/O access has been the major bottleneck."
//
// Levels live on disk.  Each level — the sorted file of canonical
// k-cliques — is stored as an ordered list of run-aligned shard files
// (package-level comment in shard.go); shards are joined concurrently on
// a persistent worker pool fed by the sched.Dispatcher, and shard
// results are released in shard order through a sched.Sequencer, so the
// emitted clique stream is byte-identical to the sequential one at any
// worker count.  Records are optionally delta-varint encoded
// (Options.Compress), attacking the disk I/O volume the paper names as
// the bottleneck; Stats reports both the encoded bytes actually moved
// and the fixed-width-equivalent raw bytes so the compression win is
// measurable.  Only one prefix run per worker (at most n tails) plus the
// in-flight shard window is resident at a time, so memory stays O(n·P)
// regardless of how many cliques a level holds.
//
// Checkpointed runs (Options.Checkpoint) write a manifest at every level
// boundary and keep their level files on cancellation or crash; Resume
// continues such a run from its last completed level instead of
// restarting — the answer to the paper's one-week-cutoff story.
package ooc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/clique"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/sched"
)

// Options configures Enumerate and Resume.
type Options struct {
	// Ctx, when non-nil, cancels the run: the record-streaming loops
	// check it every few thousand records and Enumerate returns the
	// partial Stats with an error wrapping ctx.Err().  Plain runs remove
	// their spill directory on the way out; checkpointed runs keep the
	// last completed level and its manifest for Resume.
	Ctx context.Context
	// Dir is the spill directory (required).  Plain runs create a
	// private temporary run directory inside it; checkpointed runs use
	// Dir itself as the durable run directory.
	Dir string
	// Reporter receives maximal cliques (size >= 3, non-decreasing,
	// canonical order within a size — identical at any worker count).
	Reporter clique.Reporter
	// MaxK stops after generating cliques of size MaxK (0 = run out).
	MaxK int
	// MaxLevelBytes aborts when a level's files would exceed this many
	// encoded bytes (0 = unlimited): the out-of-core analogue of the
	// paper's one-week cutoff.  The check runs once per prefix run
	// written, after the run has been handed to its file, so an aborted
	// level overshoots by at most one run and Stats.BytesWritten still
	// equals the bytes handed to the files at the abort.
	MaxLevelBytes int64
	// OnLevel, when non-nil, observes each generation step — the
	// out-of-core counterpart of core.Options.OnLevel.
	OnLevel func(LevelStats)
	// Workers is the number of shard-join workers (0 or 1 = serial).
	// The join is the CPU-bound part of the out-of-core loop; shards of
	// one level are joined concurrently with results released in shard
	// order, so the output stream does not depend on Workers.
	Workers int
	// Compress delta-varint encodes level records instead of storing
	// fixed-width 4-byte vertices, typically shrinking level files
	// severalfold on clique-rich graphs at a small encode/decode cost.
	Compress bool
	// Checkpoint makes the run resumable: Dir itself becomes the run
	// directory, a manifest is committed at every level boundary, and on
	// cancellation (or crash) the last completed level's files are kept
	// so Resume can continue the run.  A successful run removes its
	// manifest.  Dir must not already hold another run's checkpoint.
	Checkpoint bool
	// ShardBytes overrides the target encoded size of one shard file
	// (0 = auto: the consumed level's size split ~8 ways per worker,
	// clamped to [32 KiB, 32 MiB]).  Smaller shards mean finer dispatch
	// granularity and a smaller in-order release window.
	ShardBytes int64
	// Gov, when non-nil, is the run's shared memory governor.  The
	// out-of-core engine charges its resident buffers — per-worker
	// bitmaps at pool start, each in-flight shard's I/O buffer while
	// open, and each read-ahead buffer while in flight — so a hybrid
	// run's Peak stays meaningful after the spill.  The engine never
	// enforces the budget: disk is exactly where an over-budget run
	// belongs.
	Gov *membudget.Governor
	// DisablePrefetch turns off the double-buffered shard read-ahead.
	// By default each worker leases its next shard early and reads its
	// file in the background while joining the current one, overlapping
	// level I/O with the CPU-bound join; the in-flight buffer is charged
	// to Gov, and results still release in shard order through the
	// sequencer, so the clique stream is byte-identical either way.
	DisablePrefetch bool
}

// LevelStats describes one out-of-core generation step k -> k+1.
type LevelStats struct {
	FromK        int   // size of the consumed level's cliques
	Cliques      int64 // cliques streamed from the consumed level
	Shards       int   // shard files the consumed level was stored in
	FileBytes    int64 // encoded bytes of the consumed level
	RawFileBytes int64 // fixed-width-equivalent bytes of the consumed level
	NextBytes    int64 // encoded bytes of the produced level
	RawNextBytes int64 // fixed-width-equivalent bytes of the produced level
	Maximal      int64 // maximal (k+1)-cliques reported this step
}

// OptionsFromConfig derives out-of-core Options from the unified backend
// config.  Reporter and OnLevel are left for the caller; the config's Lo
// does not narrow the backend (it reports every maximal clique of size
// >= 3) — callers filter, as the facade does.
func OptionsFromConfig(c enumcfg.Config) Options {
	return Options{
		Ctx:           c.Ctx,
		Dir:           c.Dir,
		MaxK:          c.Hi,
		MaxLevelBytes: c.SpillBudget,
		Workers:       c.Workers,
		Compress:      c.OOCCompress,
		Checkpoint:    c.Checkpoint,
	}
}

// Stats reports the run's I/O behavior.  All byte counters are true
// I/O: bytes an aborted level already moved stay counted.
type Stats struct {
	Maximal         int64
	BytesWritten    int64 // encoded bytes written to level files
	RawBytesWritten int64 // fixed-width-equivalent payload bytes (the codec's baseline)
	BytesRead       int64 // encoded bytes read back
	PeakLevelFile   int64 // largest level (sum of its shards) in encoded bytes
	Levels          int   // generation steps run
	Shards          int64 // shard files produced
	Aborted         bool  // a level was cut short (budget, cancel, or error)
	Resumed         bool  // this run continued a checkpoint
}

// ErrSpillBudget is returned when MaxLevelBytes is exceeded.
var ErrSpillBudget = errors.New("ooc: spill budget exceeded")

const shardSuffix = ".ooc"

// Enumerate runs the out-of-core enumeration and returns its statistics.
func Enumerate(g graph.Interface, opts Options) (Stats, error) {
	if err := normalizeOptions(&opts); err != nil {
		return Stats{}, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return Stats{}, err
	}
	dir := opts.Dir
	if opts.Checkpoint {
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
			return Stats{}, fmt.Errorf(
				"ooc: %s already holds a checkpoint; Resume it or remove %s", dir, manifestName)
		}
	} else {
		d, err := os.MkdirTemp(opts.Dir, "ooc-run-*")
		if err != nil {
			return Stats{}, err
		}
		dir = d
	}
	e := newEngine(g, opts, dir)
	if opts.Checkpoint {
		e.fp = Fingerprint(g)
	}
	st, err := e.enumerate()
	if !opts.Checkpoint {
		// Plain runs never leave spill files behind, success or not; a
		// failing removal is surfaced, not swallowed.
		if rerr := os.RemoveAll(dir); rerr != nil {
			err = errors.Join(err, fmt.Errorf("ooc: removing spill dir: %w", rerr))
		}
	}
	return st, err
}

// Continue runs the out-of-core level loop starting from a level of
// size-k candidate records supplied by feed instead of from the graph's
// edges: the hybrid backend's in-core -> out-of-core handoff.  feed is
// called once with the level writer's WriteRun and must produce the
// level a prefix run at a time, in canonical sorted order (the
// run-aligned sharding invariant rests on it); rawHint, when positive, estimates the level's
// fixed-width bytes so the first level is sharded sensibly.  Everything
// else matches a plain Enumerate run: the spill directory is a private
// temporary directory inside opts.Dir, removed on the way out, and
// checkpointing is not supported — the in-core prefix of a hybrid run
// cannot be replayed from a manifest.
func Continue(g graph.Interface, opts Options, k int, rawHint int64,
	feed func(write func(prefix, tails []uint32) error) error) (Stats, error) {
	if err := normalizeOptions(&opts); err != nil {
		return Stats{}, err
	}
	if opts.Checkpoint {
		return Stats{}, fmt.Errorf("ooc: Continue does not support checkpointed runs")
	}
	if k < 2 {
		return Stats{}, fmt.Errorf("ooc: Continue from level %d (want >= 2)", k)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return Stats{}, err
	}
	dir, err := os.MkdirTemp(opts.Dir, "ooc-run-*")
	if err != nil {
		return Stats{}, err
	}
	e := newEngine(g, opts, dir)
	st, err := e.continueFrom(k, rawHint, feed)
	if rerr := os.RemoveAll(dir); rerr != nil {
		err = errors.Join(err, fmt.Errorf("ooc: removing spill dir: %w", rerr))
	}
	return st, err
}

func (e *engine) continueFrom(k int, rawHint int64,
	feed func(write func(prefix, tails []uint32) error) error) (Stats, error) {
	shards, err := e.spillLevel(k, rawHint, feed)
	if err != nil {
		return e.stats(), err
	}
	return e.run(shards, k)
}

// Resume continues a checkpointed run from the manifest in opts.Dir.
// The graph must be the one the checkpoint was written for (verified by
// fingerprint).  The record encoding and, when not overridden, MaxK are
// adopted from the manifest; cumulative Stats continue from the
// checkpoint, so a resumed run's final Stats match an uninterrupted
// run's.  The interrupted level is re-joined from its beginning, so its
// cliques are re-emitted: the resumed stream is exactly the uninterrupted
// stream from the first clique of size K+1 (the manifest's level) on.
func Resume(g graph.Interface, opts Options) (Stats, error) {
	opts.Checkpoint = true
	if err := normalizeOptions(&opts); err != nil {
		return Stats{}, err
	}
	m, err := LoadManifest(opts.Dir)
	if err != nil {
		return Stats{}, err
	}
	fp := Fingerprint(g)
	if m.GraphN != g.N() || m.GraphM != g.M() || m.GraphHash != fp {
		return Stats{}, fmt.Errorf(
			"ooc: checkpoint in %s was written for a different graph (manifest n=%d m=%d hash=%s, graph n=%d m=%d hash=%s)",
			opts.Dir, m.GraphN, m.GraphM, m.GraphHash, g.N(), g.M(), fp)
	}
	if err := verifyShards(opts.Dir, m.Shards); err != nil {
		return Stats{}, err
	}
	// Partial outputs of the interrupted level are discarded; the level
	// re-runs from its durable input.
	if err := RemoveStaleShards(opts.Dir, m.Shards); err != nil {
		return Stats{}, err
	}
	opts.Compress = m.Compress
	if opts.MaxK == 0 {
		opts.MaxK = m.MaxK
	}
	e := newEngine(g, opts, opts.Dir)
	e.fp = fp // already computed for the guard; skip the second edge scan
	e.restore(m)
	return e.run(m.Shards, m.K)
}

func normalizeOptions(opts *Options) error {
	if opts.Dir == "" {
		return fmt.Errorf("ooc: Dir is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.ShardBytes < 0 {
		return fmt.Errorf("ooc: negative ShardBytes %d", opts.ShardBytes)
	}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	return nil
}

// engine is one run's state: the pool, the I/O counters (atomics — the
// workers account for bytes the instant they move, which is what keeps
// aborted runs truthful), and the level cursor.
type engine struct {
	g    graph.Interface
	opts Options
	ctx  context.Context
	dir  string
	fp   string // graph fingerprint (checkpointed runs only)

	written    atomic.Int64
	rawWritten atomic.Int64
	read       atomic.Int64
	shardSeq   atomic.Int64

	// Mutated only in-order: under the sequencer lock during a level,
	// by the coordinator between levels.
	maximal     int64
	levels      int
	shardsTotal int64
	peak        int64
	aborted     bool
	resumed     bool
	checkpinned bool  // a manifest has been committed
	claimed     bool  // this process owns the checkpoint dir (first commit done)
	owner       Owner // the stamp each commit carries

	workers []*oocWorker
	poolWG  sync.WaitGroup
}

func newEngine(g graph.Interface, opts Options, dir string) *engine {
	return &engine{g: g, opts: opts, ctx: opts.Ctx, dir: dir, owner: SelfOwner("ooc")}
}

// restore loads the cumulative counters of a checkpoint, so the resumed
// run's Stats continue where the interrupted run's boundary left off.
func (e *engine) restore(m *Manifest) {
	e.maximal = m.Stats.Maximal
	e.written.Store(m.Stats.BytesWritten)
	e.rawWritten.Store(m.Stats.RawBytesWritten)
	e.read.Store(m.Stats.BytesRead)
	e.peak = m.Stats.PeakLevelFile
	e.levels = m.Stats.Levels
	e.shardsTotal = m.Stats.Shards
	e.resumed = true
	e.checkpinned = true
}

func (e *engine) stats() Stats {
	return Stats{
		Maximal:         e.maximal,
		BytesWritten:    e.written.Load(),
		RawBytesWritten: e.rawWritten.Load(),
		BytesRead:       e.read.Load(),
		PeakLevelFile:   e.peak,
		Levels:          e.levels,
		Shards:          e.shardsTotal,
		Aborted:         e.aborted,
		Resumed:         e.resumed,
	}
}

// enumerate is the fresh-run entry: spill the edge level, then run the
// level loop from k=2.
func (e *engine) enumerate() (Stats, error) {
	shards, err := e.spillEdges()
	if err != nil {
		return e.stats(), err
	}
	return e.run(shards, 2)
}

// run drives the level loop from the given level until no candidates
// remain (or MaxK / cancellation / the spill budget stops it).
//
//repro:ctxloop
func (e *engine) run(shards []ShardMeta, k int) (Stats, error) {
	e.startPool()
	defer e.stopPool()
	if e.opts.Checkpoint && !e.checkpinned {
		if err := e.writeCheckpoint(shards, k); err != nil {
			return e.stats(), err
		}
	}
	for LevelRecords(shards) > 0 {
		if e.opts.MaxK > 0 && k >= e.opts.MaxK {
			break
		}
		if err := e.ctx.Err(); err != nil {
			// Between levels the checkpoint is already durable; just
			// stop.  Plain runs are cleaned up by Enumerate.
			return e.stats(), fmt.Errorf("ooc: canceled before level %d->%d: %w", k, k+1, err)
		}
		next, err := e.runLevel(shards, k)
		if err != nil {
			return e.stats(), err
		}
		// Crash-ordering: the produced level is durable before the
		// manifest names it, and the consumed level is deleted only
		// after the manifest commits — whatever instant a kill lands,
		// the directory holds one consistent, resumable level.
		if e.opts.Checkpoint {
			if err := e.writeCheckpoint(next, k+1); err != nil {
				return e.stats(), err
			}
		}
		if err := e.removeShards(shards); err != nil {
			return e.stats(), err
		}
		shards, k = next, k+1
	}
	// Completion mirrors the boundary ordering: retire the manifest
	// BEFORE deleting the shards it names.  A kill between the two
	// leaves stray (unreferenced) shard files, never a manifest naming
	// deleted ones — the checkpoint is always either resumable or gone.
	if e.opts.Checkpoint {
		if err := RemoveManifest(e.dir); err != nil {
			return e.stats(), err
		}
	}
	if err := e.removeShards(shards); err != nil {
		return e.stats(), err
	}
	return e.stats(), nil
}

func (e *engine) writeCheckpoint(shards []ShardMeta, k int) error {
	st := e.stats()
	st.Aborted = false
	// The first commit claims the directory (a fresh run writes into an
	// empty one; a Resume adopts the checkpoint it just validated); every
	// later commit must match the owner already on disk — a stale
	// process's late commit is rejected instead of silently accepted.
	if err := WriteManifest(e.dir, &Manifest{
		Owner:     e.owner,
		Compress:  e.opts.Compress,
		K:         k,
		MaxK:      e.opts.MaxK,
		Shards:    shards,
		Stats:     st,
		GraphN:    e.g.N(),
		GraphM:    e.g.M(),
		GraphHash: e.fp,
	}, !e.claimed); err != nil {
		return err
	}
	e.claimed = true
	e.checkpinned = true
	return nil
}

func (e *engine) removeShards(shards []ShardMeta) error {
	var errs []error
	for _, s := range shards {
		if err := os.Remove(filepath.Join(e.dir, s.Path)); err != nil {
			errs = append(errs, fmt.Errorf("ooc: remove consumed level file: %w", err))
		}
	}
	return errors.Join(errs...)
}

func (e *engine) nextShardName(k int) string {
	return fmt.Sprintf("l%03d-%06d%s", k, e.shardSeq.Add(1), shardSuffix)
}

// shardTarget sizes the next level's shards from the consumed level's
// encoded bytes: about eight shards per worker, so the dispatcher has
// slack to balance skewed shard costs, clamped so tiny levels are not
// pulverized and huge ones are not monolithic.
func (e *engine) shardTarget(consumedBytes int64) int64 {
	if e.opts.ShardBytes > 0 {
		return e.opts.ShardBytes
	}
	return DefaultShardTarget(consumedBytes, e.opts.Workers)
}

// spillEdges writes level 2 — every edge in canonical order — through
// the sharding writer.
func (e *engine) spillEdges() ([]ShardMeta, error) {
	return e.spillLevel(2, 8*int64(e.g.M()), EdgeFeed(e.ctx, e.g))
}

// spillLevel writes one level's sorted record stream — produced by feed
// in canonical order — through the exported WriteLevel entry, with the
// engine's usual accounting.  rawHint estimates the level's fixed-width
// bytes for shard-target sizing.
func (e *engine) spillLevel(k int, rawHint int64,
	feed func(write func(prefix, tails []uint32) error) error) ([]ShardMeta, error) {
	var levelOut atomic.Int64
	shards, err := WriteLevel(e.dir, k, e.opts.Compress, e.shardTarget(rawHint), e.opts.Gov,
		func() (string, error) { return e.nextShardName(k), nil },
		e.accountWrite(&levelOut, k), feed)
	if err != nil {
		e.aborted = true
		return nil, err
	}
	e.shardsTotal += int64(len(shards))
	return shards, nil
}

// accountWrite builds the onWrite hook for one level: global I/O
// counters first (they must be truthful even if this very write aborts
// the level), then the per-level spill budget.
func (e *engine) accountWrite(levelOut *atomic.Int64, nextK int) func(enc, raw int64) error {
	budget := e.opts.MaxLevelBytes
	return func(enc, raw int64) error {
		e.written.Add(enc)
		e.rawWritten.Add(raw)
		if budget > 0 && levelOut.Add(enc) > budget {
			return fmt.Errorf("%w: level %d would pass %d bytes", ErrSpillBudget, nextK, budget)
		}
		return nil
	}
}

// levelJob is one level's work order, broadcast to the pool.
type levelJob struct {
	k       int
	shards  []ShardMeta
	disp    *sched.Dispatcher
	seq     *sched.Sequencer[*shardResult]
	ctx     context.Context
	cancel  context.CancelFunc
	target  int64
	collect bool
	onWrite func(enc, raw int64) error
	wg      sync.WaitGroup

	mu       sync.Mutex
	files    []string // next-level shard files created (for failure cleanup)
	firstErr error
}

// fail records the level's first error and cancels the level context so
// the other workers stop pulling work.  Later "canceled" errors from
// peers reacting to that cancel are discarded.
func (j *levelJob) fail(err error) {
	j.mu.Lock()
	if j.firstErr == nil {
		j.firstErr = err
	}
	j.mu.Unlock()
	j.cancel()
}

func (j *levelJob) addFile(name string) {
	j.mu.Lock()
	j.files = append(j.files, name)
	j.mu.Unlock()
}

// shardResult is one input shard's join output: the next-level shards it
// wrote, its maximal-clique emissions (a flat vertex arena — no
// per-clique allocation), and the count.
type shardResult struct {
	out       []ShardMeta
	maximal   int64
	emitVerts []int
	emitOff   []int32
}

// runLevel joins one level's shards on the pool and returns the next
// level's shard list.
func (e *engine) runLevel(shards []ShardMeta, k int) ([]ShardMeta, error) {
	e.levels++
	encB, rawB := LevelBytes(shards)
	if encB > e.peak {
		e.peak = encB
	}
	lst := LevelStats{
		FromK:        k,
		Cliques:      LevelRecords(shards),
		Shards:       len(shards),
		FileBytes:    encB,
		RawFileBytes: rawB,
	}
	maxBefore := e.maximal

	loads := make([]int64, len(shards))
	for i, s := range shards {
		loads[i] = s.Records
	}
	lctx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	var levelOut atomic.Int64
	job := &levelJob{
		k:       k,
		shards:  shards,
		disp:    sched.NewContiguousDispatcher(loads, e.opts.Workers, 1),
		ctx:     lctx,
		cancel:  cancel,
		target:  e.shardTarget(encB),
		collect: e.opts.Reporter != nil,
		onWrite: e.accountWrite(&levelOut, k+1),
	}
	var nextShards []ShardMeta
	// Release in shard order: emission order is exactly the sequential
	// order, and the next level's shard list is assembled in global run
	// order.  Maximal counts accrue on release, so an aborted level
	// counts only the cliques actually delivered.
	job.seq = sched.NewSequencer(len(shards), func(_ int, res *shardResult) {
		e.maximal += res.maximal
		if e.opts.Reporter != nil {
			start := int32(0)
			for _, end := range res.emitOff {
				e.opts.Reporter.Emit(clique.Clique(res.emitVerts[start:end]))
				start = end
			}
		}
		nextShards = append(nextShards, res.out...)
	})
	job.wg.Add(len(e.workers))
	for _, w := range e.workers {
		w.jobs <- job
	}
	job.wg.Wait()

	job.mu.Lock()
	err := job.firstErr
	files := job.files
	job.mu.Unlock()
	if err == nil {
		if cerr := e.ctx.Err(); cerr != nil {
			err = fmt.Errorf("ooc: canceled during level %d->%d: %w", k, k+1, cerr)
		}
	}
	if err != nil {
		e.aborted = true
		// Discard the partial next level; the consumed level (and, when
		// checkpointing, the manifest pointing at it) stays for Resume.
		errs := []error{err}
		for _, name := range files {
			if rerr := os.Remove(filepath.Join(e.dir, name)); rerr != nil && !os.IsNotExist(rerr) {
				errs = append(errs, fmt.Errorf("ooc: remove aborted level file: %w", rerr))
			}
		}
		return nil, errors.Join(errs...)
	}

	nst, nraw := LevelBytes(nextShards)
	lst.NextBytes, lst.RawNextBytes = nst, nraw
	lst.Maximal = e.maximal - maxBefore
	if e.opts.OnLevel != nil {
		e.opts.OnLevel(lst)
	}
	e.shardsTotal += int64(len(nextShards))
	return nextShards, nil
}

func (e *engine) startPool() {
	if e.workers != nil {
		return
	}
	e.workers = make([]*oocWorker, e.opts.Workers)
	for i := range e.workers {
		w := &oocWorker{
			id:   i,
			e:    e,
			jobs: make(chan *levelJob, 1),
			join: NewJoiner(e.g),
		}
		// Per-worker bitmap scratch is resident for the whole run; the
		// governor hears about it like any other layer's footprint: what
		// the joiner holds now is charged here, the memo rows it adds
		// later by its builder.
		w.join.b.Gov = e.opts.Gov
		e.opts.Gov.Charge(w.join.ScratchBytes())
		e.workers[i] = w
		e.poolWG.Add(1)
		go w.loop()
	}
}

func (e *engine) stopPool() {
	for _, w := range e.workers {
		close(w.jobs)
	}
	e.poolWG.Wait()
	for _, w := range e.workers {
		e.opts.Gov.Release(w.join.ScratchBytes())
	}
}

// oocWorker is one persistent pool thread.  Its Joiner's bitmaps and
// record scratch live for the whole run, so the spill hot loop
// allocates nothing per record (pinned by TestJoinHotLoopAllocs).
type oocWorker struct {
	id   int
	e    *engine
	jobs chan *levelJob
	join *Joiner
}

func (w *oocWorker) loop() {
	defer w.e.poolWG.Done()
	for job := range w.jobs {
		w.runJob(job)
		job.wg.Done()
	}
}

// runJob drains the dispatcher with one shard of read-ahead: the worker
// flattens its leased chunks into a local queue and, before joining a
// shard, starts a background read of the next queued shard's file — the
// double buffer that overlaps the level's I/O with the CPU-bound join.
// The deposit order into the sequencer is unchanged (the queue preserves
// lease order and results still release in shard order), so the clique
// stream is byte-identical with read-ahead on or off.  Every exit path
// drains the in-flight read first: its goroutine and its governor-
// charged buffer must not outlive the level.
//
//repro:ctxloop
func (w *oocWorker) runJob(job *levelJob) {
	prefetch := !w.e.opts.DisablePrefetch
	var queue []int
	var next *prefetched
	defer func() {
		if next != nil {
			next.await()
			w.e.opts.Gov.Release(job.shards[next.si].Bytes)
		}
	}()
	for {
		if job.ctx.Err() != nil {
			return
		}
		if len(queue) == 0 {
			chunk, ok := job.disp.Next(w.id)
			if !ok {
				return
			}
			queue = append(queue, chunk.Items...)
		}
		si := queue[0]
		queue = queue[1:]
		var data []byte
		if next != nil && next.si == si {
			d, err := next.await()
			next = nil
			if err != nil {
				w.e.opts.Gov.Release(job.shards[si].Bytes)
				if job.ctx.Err() != nil {
					return // level canceled; the driver reports it
				}
				job.fail(err)
				return
			}
			data = d
		}
		// Lease ahead so the successor's read overlaps this shard's
		// join; the dispatcher stays the single source of assignment.
		if len(queue) == 0 {
			if chunk, ok := job.disp.Next(w.id); ok {
				queue = append(queue, chunk.Items...)
			}
		}
		if prefetch && next == nil && len(queue) > 0 {
			next = w.startPrefetch(job, queue[0])
		}
		res, err := w.processShard(job, si, data)
		if data != nil {
			w.e.opts.Gov.Release(job.shards[si].Bytes)
		}
		if err != nil {
			job.fail(err)
			return
		}
		job.seq.Deposit(si, res)
	}
}

// prefetched is one shard's encoded file, read ahead of its join by a
// background goroutine.  await joins that goroutine; the shard's
// meta.Bytes stay charged to the governor from startPrefetch until the
// consumer (or the job's abandon path) releases them.
type prefetched struct {
	si   int
	data []byte
	err  error
	done chan struct{}
}

func (p *prefetched) await() ([]byte, error) {
	<-p.done
	return p.data, p.err
}

// startPrefetch charges the shard's encoded size to the governor and
// begins reading its file in the background.
func (w *oocWorker) startPrefetch(job *levelJob, si int) *prefetched {
	meta := job.shards[si]
	w.e.opts.Gov.Charge(meta.Bytes)
	p := &prefetched{si: si, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		if err := job.ctx.Err(); err != nil {
			p.err = err
			return
		}
		data, err := os.ReadFile(filepath.Join(w.e.dir, meta.Path))
		if err == nil && int64(len(data)) != meta.Bytes {
			err = corrupt("%s: size %d, manifest expects %d", meta.Path, len(data), meta.Bytes)
		}
		p.data, p.err = data, err
	}()
	return p
}

// processShard joins one input shard through the worker's Joiner,
// writing next-level candidates through its own sharding writer (output
// shards of consecutive input shards concatenate in order — the
// run-aligned range-sharding invariant).  The join itself lives in
// Joiner.JoinShard / JoinShardBytes, shared with the distributed worker
// path; data, when non-nil, is the shard's prefetched encoded file.
func (w *oocWorker) processShard(job *levelJob, si int, data []byte) (*shardResult, error) {
	e := w.e
	k := job.k
	out := NewLevelWriter(e.dir, k+1, e.opts.Compress, job.target, e.opts.Gov,
		func() (string, error) {
			name := e.nextShardName(k + 1)
			job.addFile(name)
			return name, nil
		},
		job.onWrite)
	var st JoinStats
	var err error
	if data != nil {
		st, err = w.join.JoinShardBytes(job.ctx, data, job.shards[si], k, e.opts.Compress, out, job.collect)
	} else {
		st, err = w.join.JoinShard(job.ctx, e.dir, job.shards[si], k, e.opts.Compress, e.opts.Gov, out, job.collect)
	}
	e.read.Add(st.BytesRead)
	if err != nil {
		return nil, errors.Join(err, out.Abort())
	}
	metas, err := out.Finish()
	if err != nil {
		return nil, err
	}
	return &shardResult{
		out:       metas,
		maximal:   st.Maximal,
		emitVerts: st.EmitVerts,
		emitOff:   st.EmitOff,
	}, nil
}
