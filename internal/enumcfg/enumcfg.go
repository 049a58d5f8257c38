// Package enumcfg is the single configuration vocabulary of the
// enumeration regimes and the public facade.  The paper's arc is one
// algorithm — level-wise maximal clique enumeration — retargeted across
// execution regimes; this package is where the regimes agree on what a
// run means: the size bounds, the worker count, the spill directory, and
// the cancellation context.
//
// One Config describes a run from the facade down to the engines.  The
// facade fills it from its options and hands it, with the run's hooks
// (core.Hooks: reporter, level observer, governor), to the entry point
// its Backend selects — hybrid.Enumerate for every run that starts in
// core, ooc.Enumerate for the disk loop, dist.Enumerate for the
// coordinator.  Each entry point validates it with Normalize, the one
// rule for defaults, ranges and the per-regime exclusions, and restates
// none of it.  internal/core and internal/parallel never see a Config:
// they share the Strategy enum and the bounds rule parallel applies to
// its own Options, CheckBounds.
package enumcfg

import (
	"context"
	"fmt"
	"time"
)

// Strategy selects the parallel dispatch policy.
type Strategy int

const (
	// Contiguous dispatches each level's sub-lists from one shared
	// canonical-order queue.
	Contiguous Strategy = iota
	// Affinity keeps creator ownership and applies threshold stealing.
	Affinity
)

// Backend identifies the execution regime a Config resolves to.
type Backend int

const (
	// Sequential is the in-core single-threaded Clique Enumerator.
	Sequential Backend = iota
	// Parallel is the streaming worker pool.
	Parallel
	// OutOfCore is the disk-spilling enumerator.
	OutOfCore
	// Hybrid starts in-core (sequential or the streaming pool per
	// Workers) under the memory governor and spills the resident level
	// to out-of-core shard files the moment the budget trips, continuing
	// on the disk-backed engine — same ordered clique stream either way.
	Hybrid
	// Distributed is the coordinator/worker regime: level shards are
	// leased to worker processes over a transport and the results merged
	// in shard order — the same ordered clique stream as every other
	// backend, at any worker count.
	Distributed
)

// String names the backend for stats and diagnostics.
func (b Backend) String() string {
	switch b {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	case OutOfCore:
		return "out-of-core"
	case Hybrid:
		return "hybrid"
	case Distributed:
		return "distributed"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Config is the unified run description every backend understands.  Zero
// value + Normalize gives the defaults: the full size range from
// Init_K = 2, one thread, in-core.
type Config struct {
	// Ctx cancels the run between generation steps (and, within a step,
	// where a run of sub-lists starts, or between spill records).
	// Normalize sets a nil one to
	// Background.
	Ctx context.Context

	// Lo is the smallest clique size of interest (the paper's Init_K);
	// Hi, when positive, stops after cliques of size Hi.  Defaults: 2, 0.
	Lo, Hi int

	// Workers selects the parallel backend when > 1.  Default 1.
	Workers int
	// Strategy is the parallel dispatch policy.
	Strategy Strategy

	// MemoryBudget, when positive, is the memory governor's budget: the
	// bound on everything the run declares resident (graph adjacency
	// bytes, the candidate levels' blocks, worker scratch, spill I/O
	// buffers).  On the purely in-core backends exceeding it aborts the
	// run; combined with a spill Dir it selects the hybrid backend,
	// which spills to disk and continues instead of aborting.
	MemoryBudget int64

	// Dir, when non-empty, selects the out-of-core backend (or, together
	// with MemoryBudget, the hybrid backend), spilling level files
	// inside Dir.  SpillBudget, when positive, aborts when a level's
	// files would exceed that many bytes.  Workers > 1 joins the level
	// shards concurrently (the output stream is identical at any worker
	// count).
	Dir         string
	SpillBudget int64
	// Spill records that the hybrid regime was requested explicitly
	// (the facade's WithSpillover), so a missing Dir or MemoryBudget is
	// a configuration error instead of a silent fallback to another
	// backend.  It is implied — and set by Normalize — whenever both
	// MemoryBudget and Dir are given on a non-resume run.
	Spill bool
	// ShardBytes overrides the target encoded size of one level shard
	// file, out of core and distributed (0 = auto: the consumed level's
	// size split two ways per worker, clamped; ooc.DefaultShardTarget).
	// Smaller shards mean finer dispatch and lease granularity, at a
	// file's fixed cost each.
	ShardBytes int64
	// Checkpoint makes the out-of-core run resumable: Dir becomes a
	// durable run directory with a manifest committed at every level
	// boundary, kept on cancellation for a later Resume.
	Checkpoint bool
	// Resume continues the checkpointed out-of-core run whose manifest
	// lives in Dir instead of starting fresh.  Implies Checkpoint.
	Resume bool

	// DistWorkers, when > 0, selects the distributed coordinator/worker
	// backend with that many worker processes leasing level shards from
	// Dir.  Mutually exclusive with the in-process regimes' knobs; see
	// Normalize.
	DistWorkers int
	// DistWorkerCmd is the worker argv for the exec/pipe transport
	// (empty = re-execute this binary with -worker).
	DistWorkerCmd []string
	// DistLeaseTimeout bounds how long a worker holding a shard may send
	// nothing before the lease is revoked and the shard re-leased: every
	// frame, heartbeats included, extends the lease, so a slow join is
	// never swept.  Normalize defaults it to 30s on a distributed run.
	DistLeaseTimeout time.Duration

	// ReportSmall additionally reports maximal 1- and 2-cliques, from
	// the seed, on every backend (the paper's experiments start at 3).
	ReportSmall bool
}

// Backend resolves the execution regime the config selects.  A spill Dir
// plus a memory budget means hybrid — start in-core, spill on the
// governor's trip — unless the run resumes a checkpoint, which is
// out-of-core from its first record.
func (c *Config) Backend() Backend {
	switch {
	case c.DistWorkers > 0:
		return Distributed
	case c.Resume:
		return OutOfCore
	case c.Spill, c.Dir != "" && c.MemoryBudget > 0:
		return Hybrid
	case c.Dir != "":
		return OutOfCore
	case c.Workers > 1:
		return Parallel
	}
	return Sequential
}

// CheckBounds validates a (lo, hi) size range after defaulting; it is the
// one bounds rule all backends share.
func CheckBounds(lo, hi int) error {
	if lo < 1 {
		return fmt.Errorf("enumcfg: Lo %d < 1", lo)
	}
	if hi != 0 && hi < lo {
		return fmt.Errorf("enumcfg: Hi %d < Lo %d", hi, lo)
	}
	return nil
}

// Normalize applies defaults and validates the config in place.
//
// The validation is regime-structured: the universal rules (bounds,
// workers, strategy, no negative size or duration) come first, then
// the knob-dependency rules (out-of-core knobs need a Dir, spillover
// needs a Dir and a budget), then one switch with the per-backend
// exclusions.  MemoryBudget is accepted by every backend — the governor
// charges and enforces it on the in-core pools and the hybrid regime
// observes it as the spill trigger — except a resumed run, which is
// out-of-core from its first record and has nothing in core to bound.
// Normalize is idempotent: every entry point runs it again on the
// config the facade already normalized.
func (c *Config) Normalize() error {
	if c.MemoryBudget < 0 {
		return fmt.Errorf("enumcfg: negative memory budget %d", c.MemoryBudget)
	}
	if c.ShardBytes < 0 {
		return fmt.Errorf("enumcfg: negative shard bytes %d", c.ShardBytes)
	}
	if c.DistLeaseTimeout < 0 {
		return fmt.Errorf("enumcfg: negative distributed lease timeout %v", c.DistLeaseTimeout)
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.Lo == 0 {
		c.Lo = 2
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if err := CheckBounds(c.Lo, c.Hi); err != nil {
		return err
	}
	if c.Workers < 1 {
		return fmt.Errorf("enumcfg: %d workers", c.Workers)
	}
	if c.Strategy != Contiguous && c.Strategy != Affinity {
		return fmt.Errorf("enumcfg: unknown strategy %d", c.Strategy)
	}
	if c.Resume {
		c.Checkpoint = true
	}
	if c.Dir == "" && (c.Checkpoint || c.Resume) {
		return fmt.Errorf("enumcfg: the out-of-core checkpoint/resume options require a spill Dir")
	}
	// Spillover dependencies: an explicit WithSpillover must name a spill
	// directory and carry a budget for the governor to trip on; a
	// resumed run never has an in-core phase to spill from.
	if c.Spill {
		if c.Dir == "" {
			return fmt.Errorf("enumcfg: spillover requires a spill Dir")
		}
		if c.MemoryBudget <= 0 {
			return fmt.Errorf("enumcfg: spillover requires a MemoryBudget for the governor to trip on")
		}
		if c.Resume {
			return fmt.Errorf("enumcfg: a resumed run is out-of-core from the start; spillover does not apply")
		}
	}
	switch c.Backend() {
	case Distributed:
		if c.DistLeaseTimeout == 0 {
			c.DistLeaseTimeout = 30 * time.Second
		}
		if c.Dir == "" {
			return fmt.Errorf("enumcfg: the distributed backend requires a run Dir shared with its workers")
		}
		if c.Workers > 1 {
			return fmt.Errorf("enumcfg: choose one parallel regime: in-process Workers or DistWorkers, not both")
		}
		if c.Resume || c.Checkpoint {
			return fmt.Errorf("enumcfg: the distributed coordinator manages its own checkpoint manifest; drop Checkpoint/Resume")
		}
		if c.Spill || c.MemoryBudget > 0 {
			return fmt.Errorf("enumcfg: the distributed backend is out-of-core from the start; the in-core memory budget does not apply")
		}
		if c.SpillBudget > 0 {
			return fmt.Errorf("enumcfg: SpillBudget is not supported by the distributed coordinator")
		}
	case Hybrid:
		c.Spill = true // latch the implied form (Dir + MemoryBudget)
		if c.Checkpoint {
			return fmt.Errorf("enumcfg: checkpointing requires an out-of-core run from the start; drop the memory budget or the checkpoint")
		}
	case OutOfCore:
		if c.Resume && c.MemoryBudget > 0 {
			return fmt.Errorf("enumcfg: a resumed run is out-of-core from the start; the memory budget does not apply")
		}
	}
	return nil
}
