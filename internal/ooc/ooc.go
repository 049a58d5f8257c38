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
// (package-level comment in shard.go).  One level driver (Loop, loop.go)
// runs the level loop; a ShardRunner joins each level's shards — here a
// persistent worker pool fed by the sched.Dispatcher (pool.go), in
// internal/dist leased worker processes — and the driver releases shard
// results in shard order through a sched.Sequencer, so the emitted
// clique stream is byte-identical to the sequential one at any worker
// count.  Records are optionally delta-varint encoded
// (Options.Compress), attacking the disk I/O volume the paper names as
// the bottleneck; Stats reports both the encoded bytes actually moved
// and the fixed-width-equivalent raw bytes so the compression win is
// measurable.  A worker joins its shards in three stages (pipeline.go):
// decode-ahead packs a shard's runs into level blocks, the in-core kernel
// joins them, write-behind encodes the sealed output into the next
// level's files — so what is resident per worker is a read window, a few
// blocks in flight each way and a write buffer, whatever a level holds.
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

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
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
	// paper's one-week cutoff.  The check runs once per batch of blocks
	// written (once per run on the edge level), after the batch has been
	// handed to its files, so an aborted level overshoots by at most one
	// batch and Stats.BytesWritten still equals the bytes handed to the
	// files at the abort.
	MaxLevelBytes int64
	// OnLevel, when non-nil, observes each generation step with the record
	// every driver emits: FromK, Cliques (records read), Maximal, and
	// Bytes/NextBytes as the encoded file bytes of the consumed and the
	// produced level; Spilled is set.  A step cut short is observed too
	// (see core.LevelStats).
	OnLevel func(core.LevelStats)
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
	// (0 = auto: the consumed level's size split two ways per worker,
	// clamped to [256 KiB, 32 MiB]; DefaultShardTarget).  Smaller shards
	// mean finer dispatch granularity and a smaller in-order release
	// window, at a file's fixed cost each.
	ShardBytes int64
	// Gov, when non-nil, is the run's shared memory governor.  The
	// out-of-core engine charges what it holds — per-worker bitmaps at
	// pool start, each shard's read window and write buffer while open,
	// each block between the pipeline's stages while in flight — so a
	// hybrid run's Peak stays meaningful after the spill.  The engine
	// never aborts on the budget (disk is exactly where an over-budget run
	// belongs) but it lives inside one: a worker's read window, block
	// queues and write buffer share the headroom the step starts with
	// (bufShare, shapeFor), the I/O buffers 4 KiB each at the least, and
	// the queues drop to depth one when their room holds less than two
	// blocks each.
	Gov *membudget.Governor
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
	if opts.Checkpoint && HasManifest(opts.Dir) {
		return Stats{}, fmt.Errorf(
			"ooc: %s already holds a checkpoint; Resume it or remove %s", opts.Dir, manifestName)
	}
	return runLocal(g, opts, (*Loop).RunEdges)
}

// Continue runs the out-of-core level loop starting from a level of
// size-k candidate records supplied by feed instead of from the graph's
// edges: the hybrid backend's in-core -> out-of-core handoff.  feed is
// called once with the level's writer and must hand it the level as
// sealed blocks, in canonical sorted order (the run-aligned sharding
// invariant rests on it); write takes the blocks with their governor
// charges and returns once the writer is done with every batch before
// them (Loop.RunFeed).  rawHint, when positive, estimates the level's
// fixed-width bytes so the first level is sharded sensibly.  Everything
// else matches a plain Enumerate run: the spill directory is a private
// temporary directory inside opts.Dir, removed on the way out, and
// checkpointing is not supported — the in-core prefix of a hybrid run
// cannot be replayed from a manifest.
func Continue(g graph.Interface, opts Options, k int, rawHint int64,
	feed func(write func([]core.Block) error) error) (Stats, error) {
	if err := normalizeOptions(&opts); err != nil {
		return Stats{}, err
	}
	if opts.Checkpoint {
		return Stats{}, fmt.Errorf("ooc: Continue does not support checkpointed runs")
	}
	if k < 2 {
		return Stats{}, fmt.Errorf("ooc: Continue from level %d (want >= 2)", k)
	}
	return runLocal(g, opts, func(l *Loop, r ShardRunner) (Stats, error) {
		return l.RunFeed(r, k, rawHint, feed)
	})
}

// runLocal drives one local run: the level loop over the in-process pool.
// Checkpointed runs use opts.Dir itself as the durable run directory;
// plain runs get a private temporary one inside it and never leave spill
// files behind, success or not — a failing removal is surfaced, not
// swallowed.
func runLocal(g graph.Interface, opts Options, start func(*Loop, ShardRunner) (Stats, error)) (Stats, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return Stats{}, err
	}
	if !opts.Checkpoint {
		dir, err := os.MkdirTemp(opts.Dir, "ooc-run-*")
		if err != nil {
			return Stats{}, err
		}
		opts.Dir = dir
	}
	p := newPool(g, opts)
	st, err := start(NewLoop(g, opts, "ooc"), p)
	p.close()
	if !opts.Checkpoint {
		if rerr := os.RemoveAll(opts.Dir); rerr != nil {
			err = errors.Join(err, fmt.Errorf("ooc: removing spill dir: %w", rerr))
		}
	}
	return st, err
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
	opts.Compress = m.Compress
	if opts.MaxK == 0 {
		opts.MaxK = m.MaxK
	}
	return runLocal(g, opts, func(l *Loop, r ShardRunner) (Stats, error) {
		return l.RunManifest(r, m)
	})
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
