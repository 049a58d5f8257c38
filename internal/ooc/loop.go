package ooc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/sched"
)

// ShardRunner joins the shards of one level: where a shard is joined —
// a goroutine of this process (the pool in pool.go) or a leased worker
// process (internal/dist) — is a scheduling policy, and this is all of
// it the level loop sees.
//
// RunLevel must deliver the result of every shard index of lv exactly
// once, in any order and from any goroutine, each only after the output
// shards it lists are closed on disk, and return once every delivery has
// been made (nil) or the level cannot finish (the reason).  The runner
// also reports the bytes it moves: lv.Wrote as output bytes reach a file
// (or, for a remote join, when its result is accepted) and lv.Read for
// the input bytes of every join, failed ones included.  The pool runs
// each worker's shards through the two-stage pipeline (pipeline.go); a
// remote worker runs one shard through the same stages.
type ShardRunner interface {
	RunLevel(ctx context.Context, lv *Level, deliver func(shard int, res ShardResult)) error
}

// Level is one generation step's work order, K -> K+1.
type Level struct {
	K       int         // clique size of the consumed level's records
	Shards  []ShardMeta // the consumed level, in run order
	Target  int64       // encoded bytes per produced shard
	Collect bool        // a Reporter is listening: buffer the maximal cliques

	loop *Loop
	out  atomic.Int64 // encoded bytes of the produced level so far
}

// Wrote accounts bytes handed to the produced level's files: the run's
// I/O counters first (they stay truthful even if this very write aborts
// the level), then the per-level spill budget.  It has the shape of
// LevelWriter's onWrite hook.
func (lv *Level) Wrote(enc, raw int64) error {
	l := lv.loop
	l.written.Add(enc)
	l.rawWritten.Add(raw)
	if budget := l.cfg.SpillBudget; budget > 0 && lv.out.Add(enc) > budget {
		return fmt.Errorf("%w: level %d would pass %d bytes", ErrSpillBudget, lv.K+1, budget)
	}
	return nil
}

// Read accounts encoded bytes read back from the consumed level.
func (lv *Level) Read(n int64) { lv.loop.read.Add(n) }

// NextShard names a produced shard from the run-wide sequence; it has
// the shape of LevelWriter's newShard hook.
func (lv *Level) NextShard() (string, error) {
	return ShardFileName(lv.K+1, fmt.Sprintf("%06d", lv.loop.shardSeq.Add(1))), nil
}

// Loop is the on-disk level driver, the disk-side twin of core.Loop:
// read level k, join, write level k+1, emit the dead ends.  It owns
// everything that is the same wherever a shard is joined — the seed
// level (core.Seed, as in memory), the loop with its Hi and cancellation
// checks, shard-target sizing, the in-order release that emits cliques
// and assembles the next shard list, Stats and the level record (the
// core.LevelStats every driver emits), byte accounting with the spill
// budget, and the one commit protocol, whose every boundary ends on the
// loop's goroutine before the next level starts (retire) — and drives a
// ShardRunner for the rest.  Enumerate, Continue, Resume and
// dist.Enumerate are entry points over it.
type Loop struct {
	g     graph.Interface
	cfg   enumcfg.Config // Dir is the run directory itself
	hooks core.Hooks
	owner Owner  // the stamp each checkpoint carries
	fp    string // graph fingerprint (checkpointed runs only)

	// Releases, when non-nil, supplies the runner's re-lease history for
	// the checkpoints to carry.
	Releases func() []ReleaseRecord

	// The workers account bytes the instant they move, which is what
	// keeps aborted runs truthful.
	written    atomic.Int64
	rawWritten atomic.Int64
	read       atomic.Int64
	shardSeq   atomic.Int64

	// st holds the counters mutated only in order: under the sequencer
	// lock during a level, by Run between levels.
	st      Stats
	claimed bool // this process owns the checkpoint dir (first commit done)
}

// NewLoop returns the driver of one run over g in the run directory
// cfg.Dir, which must exist; cfg is as Normalize leaves it (Ctx set,
// Workers >= 1), and Workers is the number of shard joiners.  Of the
// hooks, Reporter receives the maximal cliques of size >= Lo (and, with
// ReportSmall, the seed's 1- and 2-cliques), in the sequential order at
// any worker count, OnLevel observes each step with Bytes/NextBytes as
// encoded file bytes and Spilled set, and Gov is
// charged what the engine holds — per-worker bitmaps, each shard's read
// window and write buffer while open, each block between the pipeline's
// stages — inside the headroom a step starts with (bufShare, shapeFor),
// never aborting on it: disk is where an over-budget run belongs (the
// pool sizes its pipelines once, from the first spilled level's shares,
// and keeps their buffers from level to level).  role tags the run's
// checkpoints ("ooc", "coordinator").
func NewLoop(g graph.Interface, cfg enumcfg.Config, hooks core.Hooks, role string) *Loop {
	l := &Loop{g: g, cfg: cfg, hooks: hooks, owner: SelfOwner(role)}
	if cfg.Checkpoint {
		l.fp = Fingerprint(g)
	}
	return l
}

// Fingerprint returns the graph fingerprint a checkpointed run stamps on
// its manifests.
func (l *Loop) Fingerprint() string { return l.fp }

// Stats returns the run's counters as of now.
func (l *Loop) Stats() Stats {
	st := l.st
	st.BytesWritten = l.written.Load()
	st.RawBytesWritten = l.rawWritten.Load()
	st.BytesRead = l.read.Load()
	return st
}

// RunSeed is the fresh-run entry: seed the level at max(Lo, 2) with
// core.Seed — which reports the maximal Lo-cliques it finds and, with
// ReportSmall, the maximal 1- and 2-cliques before any level runs —
// write it to shard files, and run the level loop from there.  The seed
// level is charged while it is resident, each block released as the
// writer takes it.
func (l *Loop) RunSeed(r ShardRunner) (Stats, error) {
	seed := clique.Tally{Next: l.hooks.Reporter}
	lvl, _, err := core.Seed(l.cfg.Ctx, l.g, l.cfg.Lo, core.CNRecompute, l.cfg.Workers, l.cfg.ReportSmall, &seed, l.hooks.Gov)
	l.st.Maximal += seed.Count
	l.st.Seeded = clique.Tally{Count: seed.Count, MaxSize: seed.MaxSize}
	if err != nil {
		l.st.Aborted = true
		return l.Stats(), fmt.Errorf("ooc: %w", err)
	}
	l.hooks.Gov.Charge(lvl.Bytes())
	shards, err := l.spill(&Level{K: lvl.K - 1, loop: l}, lvl.Sub, 0)
	if err != nil {
		l.st.Aborted = true
		return l.Stats(), err
	}
	l.st.Shards += int64(len(shards))
	if l.cfg.Checkpoint {
		if err := l.checkpoint(shards, lvl.K); err != nil {
			return l.Stats(), err
		}
	}
	return l.run(r, lvl.K, shards)
}

// RunCut carries a tripped in-core step to disk and runs the level loop
// from there: the hybrid backend's hand-off, always a plain run, whose
// directory takes a cut level's files with it.  lvl is the consumed level
// and out the outcome the trip cut short: the head out.Next — the
// produced sub-lists of the inputs before out.Frontier, in canonical
// order — and the step's record so far.  The unjoined rest of lvl, its
// own words from the frontier on, is written as shard files of its own
// level and the head as the first shards of the next, whose spill budget
// it counts against; the step then runs on r like any other, the head's
// shards first in the level it produces.  RunCut settles both levels'
// governor charges — the consumed blocks before the frontier leave the
// ledger at once, before any file buffer opens, and every other block as
// the writer takes it, or on an error right away — and reports the step's
// one record on every path: the in-core part with its produced level
// zeroed, plus what the rest's join delivered.  The rest's files are
// removed before the next level starts, as at every boundary (retire).
func (l *Loop) RunCut(r ShardRunner, lvl *core.Level, out core.LevelOutcome) (Stats, error) {
	start, rec, f := time.Now(), cutRecord(out.Stats), out.Frontier
	release(l.hooks.Gov, lvl.Sub[:f.Block])
	lv := &Level{K: lvl.K, loop: l}
	rest, err := l.spill(&Level{K: lvl.K - 1, loop: l}, lvl.Sub[f.Block:], f.Word)
	var head []ShardMeta
	if err != nil {
		release(l.hooks.Gov, out.Next.Sub)
	} else {
		head, err = l.spill(lv, out.Next.Sub, 0)
	}
	rec.Elapsed += time.Since(start)
	if err != nil {
		if l.hooks.OnLevel != nil {
			l.hooks.OnLevel(rec)
		}
		l.st.Aborted = true
		return l.Stats(), err
	}
	l.st.Shards += int64(len(rest))
	lv.Shards = rest
	next, err := l.runLevel(r, lv, head, &rec)
	if err == nil {
		err = l.retire(rest, next, lvl.K+1)
	}
	if err != nil {
		return l.Stats(), err
	}
	return l.run(r, lvl.K+1, next)
}

// cutRecord is a tripped in-core step's record as it leaves memory: its
// produced level is on disk, not resident.
func cutRecord(st core.LevelStats) core.LevelStats {
	st.NextSub, st.NextCl, st.NextBytes, st.Spilled = 0, 0, 0, true
	return st
}

// spill writes blocks, from word from of the first on, as shard files of
// the level lv produces, and hands each block's charge back to the
// governor once the writer has taken it.  from is a run start (a cut's
// Cursor), so what is written is the level's own words, as every block
// is.  The shards are sized from the blocks' fixed-width bytes.
func (l *Loop) spill(lv *Level, blocks []core.Block, from int) ([]ShardMeta, error) {
	gov, k := l.hooks.Gov, lv.K+1
	target := l.shardTarget(4 * int64(k) * (&core.Level{Sub: blocks}).Cliques())
	return writeLevel(l.cfg.Dir, k, target, gov, lv.NextShard, lv.Wrote, func(lw *LevelWriter) error {
		for i := range blocks {
			err := l.cfg.Ctx.Err()
			if err != nil {
				err = fmt.Errorf("ooc: canceled spilling level %d: %w", k, err)
			} else {
				err = errors.Join(lw.add(blocks[i].Words()[from:]), lw.report())
			}
			from = 0
			gov.Release(blocks[i].Bytes())
			if err != nil {
				release(gov, blocks[i+1:])
				return err
			}
		}
		return nil
	})
}

// RunManifest continues the checkpoint m names in the run directory:
// the graph must be the one it was written for, every shard it lists
// must be there at its recorded size, and whatever else the interrupted
// level left behind is swept before the level re-runs from its durable
// input.  The cumulative counters continue from the checkpoint.
func (l *Loop) RunManifest(r ShardRunner, m *Manifest) (Stats, error) {
	if m.GraphN != l.g.N() || m.GraphM != l.g.M() || m.GraphHash != l.fp {
		return Stats{}, fmt.Errorf(
			"ooc: checkpoint in %s was written for a different graph (manifest n=%d m=%d hash=%s, graph n=%d m=%d hash=%s)",
			l.cfg.Dir, m.GraphN, m.GraphM, m.GraphHash, l.g.N(), l.g.M(), l.fp)
	}
	if err := verifyShards(l.cfg.Dir, m.Shards); err != nil {
		return Stats{}, err
	}
	if err := RemoveStaleShards(l.cfg.Dir, m.Shards); err != nil {
		return Stats{}, err
	}
	l.st = m.Stats
	l.written.Store(m.Stats.BytesWritten)
	l.rawWritten.Store(m.Stats.RawBytesWritten)
	l.read.Store(m.Stats.BytesRead)
	l.st.Resumed = true
	return l.run(r, m.K, m.Shards)
}

// run drives the level loop from the level of size-k records in shards —
// which a checkpointed run's manifest already names — until no candidates
// remain (or Hi / cancellation / the spill budget stops it).
//
// Every boundary runs on this goroutine, in one order (retire): the
// produced level's files are closed before the manifest names it, the
// consumed level is deleted only after the manifest commits, then every
// shard file the manifest does not name is swept, and only then does the
// next level start — whatever instant a kill of the process lands, the
// directory holds one consistent, resumable level.  Nothing is fsynced,
// so the loss of the machine is another matter (DESIGN.md §5.4).  A
// commit or a deletion that fails stops the run before the next level.
// Plain runs live in a private directory their entry point removes
// whole.
//
//repro:ctxloop
func (l *Loop) run(r ShardRunner, k int, shards []ShardMeta) (Stats, error) {
	for LevelRecords(shards) > 0 {
		if l.cfg.Hi > 0 && k >= l.cfg.Hi {
			break
		}
		if err := l.cfg.Ctx.Err(); err != nil {
			// Between levels the checkpoint is already durable.
			return l.Stats(), fmt.Errorf("ooc: canceled before level %d->%d: %w", k, k+1, err)
		}
		next, err := l.runLevel(r, &Level{K: k, Shards: shards, loop: l}, nil, nil)
		if err == nil {
			err = l.retire(shards, next, k+1)
		}
		if err != nil {
			return l.Stats(), err
		}
		shards, k = next, k+1
	}
	// Completion mirrors the boundary ordering: retire the manifest
	// BEFORE deleting the shards it names.  A kill between the two
	// leaves stray (unreferenced) shard files, never a manifest naming
	// deleted ones — the checkpoint is always either resumable or gone.
	if l.cfg.Checkpoint {
		if err := RemoveManifest(l.cfg.Dir); err != nil {
			return l.Stats(), err
		}
	}
	if err := l.removeShards(shards); err != nil {
		return l.Stats(), err
	}
	return l.Stats(), nil
}

// retire ends the boundary into next, the produced level of size-k
// records: a checkpointed run commits the manifest naming it, the
// consumed level is removed, and the directory is swept.  No level is
// being written meanwhile, so the sweep needs no bound.
func (l *Loop) retire(consumed, next []ShardMeta, k int) error {
	if l.cfg.Checkpoint {
		if err := l.checkpoint(next, k); err != nil {
			return err
		}
	}
	if boundaryHook != nil {
		if err := boundaryHook(k); err != nil {
			return err
		}
	}
	return errors.Join(l.removeShards(consumed), l.sweep(next))
}

// boundaryHook, when set (by tests), runs in every boundary once the
// checkpoint is committed and before the deletions, with the produced
// level's clique size; an error it returns ends the run there.
var boundaryHook func(k int) error

// runLevel has r join the shards of lv, one level, behind the shards of
// head, which the step produced already, and returns the next level's
// shard list.  cut, when non-nil, is the record of a step that started in
// memory (RunCut); a level from files gets its own, its sub-lists and
// cliques counted from the shard lists.
func (l *Loop) runLevel(r ShardRunner, lv *Level, head []ShardMeta, cut *core.LevelStats) ([]ShardMeta, error) {
	start, k, shards := time.Now(), lv.K, lv.Shards
	l.st.Levels++
	encB, _ := LevelBytes(shards)
	if encB > l.st.PeakLevelFile {
		l.st.PeakLevelFile = encB
	}
	rec := core.LevelStats{FromK: k, Sublists: levelRuns(shards), Cliques: LevelRecords(shards), Bytes: encB, Spilled: true}
	if cut != nil {
		rec = *cut
	}
	lv.Target = l.shardTarget(encB)
	// Only a resume can run a level below Lo (its checkpoint lies below a
	// raised bound): such a level's cliques are neither shipped nor counted.
	report := k+1 >= l.cfg.Lo
	lv.Collect = report && l.hooks.Reporter != nil
	next := head
	// Release in shard order: emission order is exactly the sequential
	// order, and the next level's shard list is assembled in global run
	// order.  The counts accrue on release, so an aborted level counts
	// only the work actually delivered.
	seq := sched.NewSequencer(len(shards), func(_ int, res ShardResult) {
		if report {
			l.st.Maximal += res.Maximal
			rec.Maximal += res.Maximal
		}
		rec.Dropped += res.Dropped
		rec.Cost.Add(res.Cost)
		rec.Wait += res.Wait
		if l.hooks.Reporter != nil {
			start := int32(0)
			for _, end := range res.EmitOff {
				l.hooks.Reporter.Emit(clique.Clique(res.EmitVerts[start:end]))
				start = end
			}
		}
		next = append(next, res.Out...)
	})
	err := r.RunLevel(l.cfg.Ctx, lv, seq.Deposit)
	if err == nil {
		if cerr := l.cfg.Ctx.Err(); cerr != nil {
			err = fmt.Errorf("ooc: canceled during level %d->%d: %w", k, k+1, cerr)
		} else if !seq.Complete() {
			err = fmt.Errorf("ooc: level %d->%d: runner delivered %d of %d shards", k, k+1, seq.Released(), len(shards))
		}
	}
	// A level cut short is observed like a completed one: its record
	// covers what was released before the cut.
	if cut == nil {
		rec.NextSub, rec.NextCl = levelRuns(next), LevelRecords(next)
		rec.NextBytes, _ = LevelBytes(next)
	}
	rec.Elapsed += time.Since(start)
	if l.hooks.OnLevel != nil {
		l.hooks.OnLevel(rec)
	}
	if err != nil {
		l.st.Aborted = true
		// Discard the partial next level; the consumed level (and the
		// manifest pointing at it) stays for Resume.
		return nil, errors.Join(err, l.sweep(shards))
	}
	l.st.Shards += int64(len(next))
	return next, nil
}

// shardTarget sizes the next level's shards from the consumed level's
// bytes on disk (DefaultShardTarget), unless the run fixes it.
func (l *Loop) shardTarget(consumedBytes int64) int64 {
	if l.cfg.ShardBytes > 0 {
		return l.cfg.ShardBytes
	}
	return DefaultShardTarget(consumedBytes, l.cfg.Workers)
}

func (l *Loop) checkpoint(shards []ShardMeta, k int) error {
	st := l.Stats()
	st.Aborted = false
	m := &Manifest{
		Owner:     l.owner,
		K:         k,
		MaxK:      l.cfg.Hi,
		Shards:    shards,
		Stats:     st,
		GraphN:    l.g.N(),
		GraphM:    l.g.M(),
		GraphHash: l.fp,
	}
	if l.Releases != nil {
		m.Releases = l.Releases()
	}
	// The first commit claims the directory (a fresh run writes into an
	// empty one; a resume adopts the checkpoint it just validated); every
	// later commit must match the owner already on disk — a stale
	// process's late commit is rejected instead of silently accepted.
	if err := WriteManifest(l.cfg.Dir, m, !l.claimed); err != nil {
		return err
	}
	l.claimed = true
	return nil
}

// removeShards deletes a level the manifest no longer names.  Every file
// must be there: a missing one means something else is deleting in this
// run directory.
func (l *Loop) removeShards(shards []ShardMeta) error {
	var errs []error
	for _, s := range shards {
		if err := os.Remove(filepath.Join(l.cfg.Dir, s.Path)); err != nil {
			errs = append(errs, fmt.Errorf("ooc: remove consumed level file: %w", err))
		}
	}
	return errors.Join(errs...)
}

// sweep deletes every shard file of a checkpointed run's directory that
// is not in keep: the partial outputs of a failed level and the outputs
// of a join whose result the runner did not accept.
func (l *Loop) sweep(keep []ShardMeta) error {
	if !l.cfg.Checkpoint {
		return nil
	}
	return RemoveStaleShards(l.cfg.Dir, keep)
}
