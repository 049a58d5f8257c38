package ooc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// This file is the worker-side face of the out-of-core engine: the
// pieces a remote (or merely out-of-process) worker needs to join one
// leased shard exactly the way the single-machine pool does — decode
// the shard's prefix runs, hand each run as it is to the one join kernel
// (core.Builder in drain mode), which spills each surviving sub-list as
// a run of (k+1)-candidates through a run-aligned LevelWriter, and
// buffer the maximal dead ends for in-order emission.  internal/dist's
// workers and the local pool in pool.go both run Joiner.Join, so the
// distributed, single-machine and in-core joins cannot drift.

// JoinStats is one shard join's output: the maximal cliques found (a
// flat vertex arena, no per-clique allocation), and the I/O the join
// performed.  The output shards are owned by the LevelWriter the caller
// supplied; Finish it to collect them.
type JoinStats struct {
	Maximal   int64
	EmitVerts []int
	EmitOff   []int32
	BytesRead int64
}

// Emit appends one maximal clique to the flat emission arena; JoinStats
// is the reporter the kernel emits a collecting join's cliques to.
func (s *JoinStats) Emit(c clique.Clique) {
	s.EmitVerts = append(s.EmitVerts, c...)
	s.EmitOff = append(s.EmitOff, int32(len(s.EmitVerts)))
}

// Joiner owns the per-worker state of the shard join: the join kernel —
// a drain-mode core.Builder that rebuilds each run's prefix bitmap from
// its memo of the run before, writes surviving candidates through Spill
// (applying the paper's |S| > 1 rule, so a level on disk holds exactly
// the cliques the in-core level would) and reports maximal cliques.  It
// is not safe for concurrent use; give each worker its own.
type Joiner struct {
	g   graph.Interface
	b   *core.Builder
	run core.SubList // the current prefix run, as the kernel's input: a record view like a level block's
}

// NewJoiner returns a Joiner over g with freshly allocated scratch.
func NewJoiner(g graph.Interface) *Joiner {
	return &Joiner{g: g, b: core.NewBuilderMode(g, core.CNRecompute, bitset.NewPool(g.N()))}
}

// ScratchBytes reports the joiner's resident bitmap footprint right now
// — what a coordinator reserves against its governor on the worker's
// behalf, so one budget authority still sees every process's scratch.
// It grows by one bitmap (a prefix-memo row) per level joined.
func (j *Joiner) ScratchBytes() int64 { return j.b.ScratchBytes() }

// ShardJob is the work order for one shard join: the input shard In of
// size-K records in Dir (Data, when non-nil, is its encoded file already
// read, owned and charged by the caller), and how the (K+1)-candidates
// are written — output shards of about Target encoded bytes in Dir,
// named by NewShard, every run's bytes reported to OnWrite, which may
// abort the join.  Gov is charged with the I/O buffers while they are
// open, each at most Buf bytes (0 = uncapped; Level.Buf).
type ShardJob struct {
	Dir      string
	K        int
	In       ShardMeta
	Data     []byte
	Compress bool
	Target   int64
	Collect  bool // buffer the maximal cliques, not only count them
	Gov      *membudget.Governor
	Buf      int64
	NewShard func() (string, error)
	OnWrite  func(enc, raw int64) error
}

// ShardResult is one joined shard: what the join found and read, and the
// output shards it wrote, closed and in run order.  Output shards of
// consecutive input shards concatenate in order — the run-aligned
// range-sharding invariant.
type ShardResult struct {
	JoinStats
	Out []ShardMeta
}

// Join executes one shard join from opening the input to closing the
// last output shard: the one implementation the in-process pool and the
// distributed worker both run.  On error the partial output is closed
// (its files are the level driver's to sweep) and the result still
// carries the bytes the join read.
func (j *Joiner) Join(ctx context.Context, job *ShardJob) (ShardResult, error) {
	var r *ShardReader
	var err error
	if job.Data != nil {
		r, err = OpenShardBytes(job.Data, job.In, job.K, j.g.N(), job.Compress)
	} else {
		r, err = openShard(job.Dir, job.In, job.K, j.g.N(), job.Compress, job.Gov, job.Buf)
	}
	if err != nil {
		return ShardResult{}, err
	}
	out := NewLevelWriter(job.Dir, job.K+1, job.Compress, job.Target, job.Gov, job.NewShard, job.OnWrite)
	out.bufCap = job.Buf
	st, err := j.joinFrom(ctx, r, job.K, out, job.Collect)
	if err != nil {
		return ShardResult{JoinStats: JoinStats{BytesRead: st.BytesRead}}, errors.Join(err, out.Abort())
	}
	metas, err := out.Finish()
	return ShardResult{JoinStats: st, Out: metas}, err
}

// JoinShardBytes joins one input shard of size-k records from an
// in-memory copy of its encoded file, writing next-level candidates
// through out (which the caller owns: Finish it for the output shard
// list, Abort it on error).  collect buffers maximal-clique emissions in
// the returned JoinStats; pass false when only counts are wanted.  It is
// Join's kernel step alone, for callers that time the writer themselves.
func (j *Joiner) JoinShardBytes(ctx context.Context, data []byte, in ShardMeta, k int,
	compress bool, out *LevelWriter, collect bool) (JoinStats, error) {
	r, err := OpenShardBytes(data, in, k, j.g.N(), compress)
	if err != nil {
		return JoinStats{}, err
	}
	return j.joinFrom(ctx, r, k, out, collect)
}

// joinFrom feeds the opened shard's prefix runs straight from the
// decoder into the kernel, closing the reader on every path.  All
// scratch is joiner- or reader-owned — the loop allocates only when the
// emission arena grows.
//
//repro:ctxloop
func (j *Joiner) joinFrom(ctx context.Context, r *ShardReader, k int,
	out *LevelWriter, collect bool) (res JoinStats, err error) {
	defer func() {
		res.BytesRead = r.BytesRead()
		if cerr := r.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}()

	b := j.b
	b.Reset()
	b.Spill = out.WriteRun
	var rep clique.Reporter
	if collect {
		rep = &res
	}
	// Cancellation point: every 4096 records or so, so abort latency
	// stays bounded even when one shard holds millions of cliques.
	sinceCheck := 4096
	for {
		if sinceCheck >= 4096 {
			if ctx.Err() != nil {
				return res, fmt.Errorf("ooc: canceled during level %d->%d: %w", k, k+1, ctx.Err())
			}
			sinceCheck = 0
		}
		prefix, tails, err := r.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		sinceCheck += len(tails)
		// A run of one clique has no pair to join — the kernel's loop is
		// empty for it, which is also how the singleton runs of a
		// checkpoint written before the on-disk |S| > 1 rule are skipped.
		j.run.Prefix, j.run.Tails, j.run.LCP = prefix, tails, r.dec.shared
		b.ProcessSubList(&j.run, rep)
		if b.SpillErr != nil {
			return res, b.SpillErr
		}
	}
	res.Maximal = b.Maximal
	return res, nil
}

// WriteLevel writes one level's sorted record stream — produced by feed
// a prefix run at a time (LevelWriter.WriteRun), in canonical order, the
// run-aligned sharding invariant — into dir as shard files of roughly
// target encoded bytes.  nextName names each shard file; onWrite
// observes every run's encoded/raw byte increment (and may return an
// error to abort the level, e.g. a spill budget).  On a
// feed or write error every shard file created so far is removed and
// the error returned; on success the level's shard list is returned.
// The level driver writes every first level through it.
func WriteLevel(dir string, k int, compress bool, target int64,
	gov *membudget.Governor, nextName func() (string, error),
	onWrite func(enc, raw int64) error,
	feed func(write func(prefix, tails []uint32) error) error) ([]ShardMeta, error) {
	var created []string
	lw := NewLevelWriter(dir, k, compress, target, gov,
		func() (string, error) {
			name, err := nextName()
			if err == nil {
				created = append(created, name)
			}
			return name, err
		},
		onWrite)
	lw.bufCap = bufShare(gov, 1) // the one buffer open while a level is fed
	if werr := feed(lw.WriteRun); werr != nil {
		errs := []error{werr, lw.Abort()}
		for _, name := range created {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				errs = append(errs, fmt.Errorf("ooc: remove aborted level spill: %w", err))
			}
		}
		return nil, errors.Join(errs...)
	}
	return lw.Finish()
}

// EdgeFeed adapts a graph's canonical edge stream to WriteLevel's feed
// contract: for every vertex u in order, the run ([u], its neighbors
// above u) — the level-2 seed of the out-of-core loop.  ctx cancels
// between batches of 4096 edges.
func EdgeFeed(ctx context.Context, g graph.Interface) func(write func(prefix, tails []uint32) error) error {
	return func(write func(prefix, tails []uint32) error) error {
		var prefix [1]uint32
		var tails []uint32
		var werr error
		cnt := 0
		flush := func() bool {
			if len(tails) > 0 {
				werr = write(prefix[:], tails)
				tails = tails[:0]
			}
			return werr == nil
		}
		graph.ForEachEdge(g, func(u, v int) bool {
			if cnt&4095 == 0 && ctx.Err() != nil {
				werr = fmt.Errorf("ooc: canceled during edge spill: %w", ctx.Err())
				return false
			}
			cnt++
			if uint32(u) != prefix[0] && !flush() {
				return false
			}
			prefix[0] = uint32(u)
			tails = append(tails, uint32(v))
			return true
		})
		if werr == nil {
			flush()
		}
		return werr
	}
}

// DefaultShardTarget sizes a level's shards from the consumed level's
// encoded bytes: about eight shards per worker, so the dispatcher (or
// the distributed lease table) has slack to balance skewed shard costs,
// clamped so tiny levels are not pulverized and huge ones are not
// monolithic.
func DefaultShardTarget(consumedBytes int64, workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	t := consumedBytes / int64(8*workers)
	const minTarget = 32 << 10
	const maxTarget = 32 << 20
	if t < minTarget {
		t = minTarget
	}
	if t > maxTarget {
		t = maxTarget
	}
	return t
}

// ShardFileName builds the canonical shard file name for level k with a
// distinguishing tag (the engine uses a global sequence; the
// distributed coordinator embeds shard index and lease attempt so a
// superseded worker's output can never collide with its replacement's).
func ShardFileName(k int, tag string) string {
	return fmt.Sprintf("l%03d-%s%s", k, tag, shardSuffix)
}
