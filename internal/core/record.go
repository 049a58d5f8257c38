package core

import (
	"time"

	"repro/internal/clique"
)

// The run record.  Every regime describes a run the same way: one
// LevelStats per generation step, emitted by the level driver that ran
// the step (Loop in memory, ooc.Loop on disk, for a local pool or for
// leased worker processes alike), and one Result that is nothing but the
// fold of that stream plus the seed phase's tally.  Totals are computed
// here and nowhere else, so what a run's struct says and what its level
// events said cannot differ.

// LevelStats is one generation step k -> k+1 as its driver saw it.  A
// step that was cut short — budget abort, cancellation, I/O error — is
// reported too, once, as the last record of its run: its counts cover
// what was delivered before the cut.
type LevelStats struct {
	FromK     int   // size of the consumed candidates
	Sublists  int   // N[k] consumed; on disk, the runs of its shards
	Cliques   int64 // M[k] consumed
	Bytes     int64 // the consumed level: its blocks' bytes as charged; on disk, its encoded file bytes
	NextSub   int   // N[k+1] produced, counted like Sublists (0 for a step a trip carried to disk)
	NextCl    int64 // M[k+1] produced (0 for a step a trip carried to disk)
	NextBytes int64 // the produced level, measured like Bytes
	Maximal   int64 // maximal (k+1)-cliques delivered to the reporter
	Dropped   int64 // non-maximal (k+1)-cliques discarded (singleton rule)
	Cost      Cost

	// Pool engine only: the dispatcher's chunk count, the blocks
	// processed off their home worker, per-worker busy seconds and
	// abstract cost units, and the bytes the pool has on the governor for
	// its per-block bookkeeping of the two levels.
	Chunks     int
	Transfers  int
	WorkerBusy []float64
	WorkerCost []int64
	Held       int64

	// Spilled marks a step joined (at least partly) from or to shard
	// files: every step of the on-disk driver, and the step a hybrid run's
	// trip carried to disk.
	Spilled bool

	// Elapsed is the step's wall time, from its start to its record.
	// Wait, on disk, is the join stage's time blocked on decode-ahead,
	// summed over workers; it is 0 in core.
	Elapsed time.Duration
	Wait    time.Duration
}

// Consumed returns what the record of a step over l says of its input:
// the part every in-core engine fills alike.
func (l *Level) Consumed() LevelStats {
	return LevelStats{FromK: l.K, Sublists: l.Sublists(), Cliques: l.Cliques(), Bytes: l.Bytes()}
}

// Result is a run's record: the seed-phase tally (Seeded) and the fold
// of its level stream (Observe).
type Result struct {
	MaximalCliques int64        // maximal cliques delivered: the seed phase's plus Σ Levels[].Maximal
	MaxCliqueSize  int          // largest size among them
	Levels         []LevelStats // the stream itself, one entry per generation step
	PeakBytes      int64        // max resident level bytes (consumed + produced) over the in-core steps
	TotalCost      Cost         // Σ Levels[].Cost
	WorkerBusy     []float64    // Σ Levels[].WorkerBusy, per worker (pool engine)
	Transfers      int          // Σ Levels[].Transfers
}

// Seeded adds what was reported before the first level: the maximal
// Lo-cliques a seeder finds and the 1-/2-cliques of ReportSmall.
func (r *Result) Seeded(seed clique.Tally) {
	r.MaximalCliques += seed.Count
	r.MaxCliqueSize = max(r.MaxCliqueSize, seed.MaxSize)
}

// Observe folds one level record into the run.  A step k -> k+1 delivers
// cliques of size exactly k+1, so the record's count is all the fold
// needs to keep the largest size.
func (r *Result) Observe(st LevelStats) {
	r.Levels = append(r.Levels, st)
	r.MaximalCliques += st.Maximal
	if st.Maximal > 0 {
		r.MaxCliqueSize = max(r.MaxCliqueSize, st.FromK+1)
	}
	if !st.Spilled {
		r.PeakBytes = max(r.PeakBytes, st.Bytes+st.NextBytes)
	}
	r.TotalCost.Add(st.Cost)
	r.Transfers += st.Transfers
	if len(r.WorkerBusy) < len(st.WorkerBusy) {
		r.WorkerBusy = append(r.WorkerBusy, make([]float64, len(st.WorkerBusy)-len(r.WorkerBusy))...)
	}
	for w, busy := range st.WorkerBusy {
		r.WorkerBusy[w] += busy
	}
}

// Fold returns the level hook of a run recorded in r: each record is
// folded, then handed to next (nil = nobody else listens).
func (r *Result) Fold(next func(LevelStats)) func(LevelStats) {
	if next == nil {
		return r.Observe
	}
	return func(st LevelStats) {
		r.Observe(st)
		next(st)
	}
}
