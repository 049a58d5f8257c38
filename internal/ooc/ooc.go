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
// pool of Joiners kept for the run, each on a goroutine of its own for a
// level, fed by the sched.Dispatcher (pool.go), in internal/dist leased
// worker processes — and the driver releases shard
// results in shard order through a sched.Sequencer, so the emitted
// clique stream is byte-identical to the sequential one at any worker
// count.  A hybrid run enters the loop mid-step (Continue): its trip
// hands over the unjoined rest of the level in memory and the head of the
// level it was producing, both written to shard files, and the loop runs
// the step like any other.  A shard is the in-core level's blocks
// themselves, a CRC-32C frame each (shard.go): what is written is what the
// join sealed and what is read is what the next join runs on, so the disk
// I/O the paper names as the bottleneck costs a copy and a checksum a
// block, no translation.  Stats reports both the bytes actually moved
// and their fixed-width-equivalent raw bytes.  A worker joins its shards
// in three stages (pipeline.go): decode-ahead reads a shard's frames into
// level blocks, the in-core kernel joins them, write-behind writes the
// sealed output into the next level's files — so what is resident per
// worker is a read window, a few blocks in flight each way and a write
// buffer, whatever a level holds.
//
// Checkpointed runs (enumcfg.Config.Checkpoint) write a manifest at every
// level boundary and keep their level files on cancellation or crash;
// Resume continues such a run from its last completed level instead of
// restarting — the answer to the paper's one-week-cutoff story.
package ooc

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
)

// Stats reports the run's I/O behavior.  All byte counters are true
// I/O: bytes an aborted level already moved stay counted.
type Stats struct {
	Maximal         int64
	BytesWritten    int64 // encoded bytes written to level files
	RawBytesWritten int64 // fixed-width-equivalent payload bytes (a word a vertex: what the front coding is measured against)
	BytesRead       int64 // encoded bytes read back
	PeakLevelFile   int64 // largest level (sum of its shards) in encoded bytes
	Levels          int   // generation steps run
	Shards          int64 // shard files produced
	Aborted         bool  // a level was cut short (budget, cancel, or error)
	Resumed         bool  // this run continued a checkpoint

	// Seeded tallies what the seed reported before the first level (its
	// Next is nil); Maximal counts it too.  A resume does not seed, so no
	// manifest carries it.
	Seeded clique.Tally `json:"-"`
}

// ErrSpillBudget is returned when a level passes the config's SpillBudget.
var ErrSpillBudget = errors.New("ooc: spill budget exceeded")

const shardSuffix = ".ooc"

// Enumerate runs the out-of-core enumeration cfg describes and returns
// its statistics; cfg must resolve to the OutOfCore backend (a spill Dir,
// no in-core budget), and a Resume config continues its checkpoint (see
// Resume).  A fresh run seeds like every other regime (core.Seed at
// max(Lo, 2), ReportSmall included) and writes the seed level to shard
// files; h.Reporter receives the maximal cliques of size >= Lo.  A plain
// run creates a private temporary run directory inside Dir and removes it
// on the way out, canceled or not; a Checkpoint run uses Dir itself,
// commits a manifest at every level boundary and keeps the last completed
// level on cancellation or crash (Dir must not hold another run's
// checkpoint).
// SpillBudget, when positive, aborts once a level's files pass that many
// encoded bytes, checked per batch of blocks written, so an aborted level
// overshoots by at most one batch.  On cancellation the partial Stats
// come back with an error wrapping ctx.Err().
func Enumerate(g graph.Interface, cfg enumcfg.Config, h core.Hooks) (Stats, error) {
	if err := cfg.Normalize(); err != nil {
		return Stats{}, fmt.Errorf("ooc: %w", err)
	}
	if b := cfg.Backend(); b != enumcfg.OutOfCore {
		return Stats{}, fmt.Errorf("ooc: the config selects the %s backend", b)
	}
	if cfg.Resume {
		return resume(g, cfg, h)
	}
	if cfg.Checkpoint && HasManifest(cfg.Dir) {
		return Stats{}, fmt.Errorf(
			"ooc: %s already holds a checkpoint; Resume it or remove %s", cfg.Dir, manifestName)
	}
	return runLocal(g, cfg, h, (*Loop).RunSeed)
}

// Continue carries a tripped in-core step to disk and runs the level loop
// from there: the hybrid backend's in-core -> out-of-core hand-off, under
// the hybrid run's cfg and hooks.  lvl is the consumed level and out the
// step's outcome, cut short by the trip (core.LevelOutcome): the head
// out.Next, the frontier and the record so far.  Continue takes over both
// levels' governor charges and settles them on every path, and reports
// the step's one record whatever happens (Loop.RunCut).  Everything else
// matches a plain Enumerate run: the spill directory is a private
// temporary directory inside cfg.Dir, removed on the way out, and
// checkpointing is not supported — the in-core prefix of a hybrid run
// cannot be replayed from a manifest.
func Continue(g graph.Interface, cfg enumcfg.Config, h core.Hooks, lvl *core.Level, out core.LevelOutcome) (Stats, error) {
	err := cfg.Normalize()
	if err == nil && cfg.Checkpoint {
		err = errors.New("Continue does not support checkpointed runs")
	}
	var st Stats
	handed := false
	if err == nil {
		st, err = runLocal(g, cfg, h, func(l *Loop, r ShardRunner) (Stats, error) {
			handed = true
			return l.RunCut(r, lvl, out)
		})
	}
	if !handed {
		// The run never started: the step leaves memory here.
		release(h.Gov, lvl.Sub)
		release(h.Gov, out.Next.Sub)
		if h.OnLevel != nil {
			h.OnLevel(cutRecord(out.Stats))
		}
		return st, fmt.Errorf("ooc: %w", err)
	}
	return st, err
}

// runLocal drives one local run: the level loop over the in-process pool.
// Checkpointed runs use cfg.Dir itself as the durable run directory;
// plain runs get a private temporary one inside it and never leave spill
// files behind, success or not — a failing removal is surfaced, not
// swallowed.
func runLocal(g graph.Interface, cfg enumcfg.Config, h core.Hooks, start func(*Loop, ShardRunner) (Stats, error)) (Stats, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return Stats{}, err
	}
	if !cfg.Checkpoint {
		dir, err := os.MkdirTemp(cfg.Dir, "ooc-run-*")
		if err != nil {
			return Stats{}, err
		}
		cfg.Dir = dir
	}
	p := newPool(g, cfg, h.Gov)
	st, err := start(NewLoop(g, cfg, h, "ooc"), p)
	p.close()
	if !cfg.Checkpoint {
		if rerr := os.RemoveAll(cfg.Dir); rerr != nil {
			err = errors.Join(err, fmt.Errorf("ooc: removing spill dir: %w", rerr))
		}
	}
	return st, err
}

// Resume continues the checkpointed run whose manifest is in cfg.Dir:
// Enumerate with cfg.Resume set.  The graph must be the one the
// checkpoint was written for (verified by fingerprint).  When cfg.Hi is
// 0 the upper bound is adopted from the manifest; cumulative Stats
// continue from the checkpoint, so a resumed run's final Stats match an
// uninterrupted run's, Seeded aside (a resume does not seed).  A
// checkpoint of another format version is refused before anything in
// the directory is touched.  The interrupted level is re-joined from
// its beginning, so its cliques are re-emitted: the resumed stream is
// exactly the uninterrupted stream from the first clique of size
// max(K+1, Lo) (K the manifest's level) on.
func Resume(g graph.Interface, cfg enumcfg.Config, h core.Hooks) (Stats, error) {
	cfg.Resume = true
	return Enumerate(g, cfg, h)
}

func resume(g graph.Interface, cfg enumcfg.Config, h core.Hooks) (Stats, error) {
	m, err := LoadManifest(cfg.Dir)
	if err != nil {
		return Stats{}, err
	}
	if cfg.Hi == 0 {
		cfg.Hi = m.MaxK
	}
	return runLocal(g, cfg, h, func(l *Loop, r ShardRunner) (Stats, error) {
		return l.RunManifest(r, m)
	})
}
