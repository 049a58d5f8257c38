package ooc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// This file is the worker-side face of the out-of-core engine: the
// pieces a remote (or merely out-of-process) worker needs to join one
// leased shard exactly the way the single-machine pool does — read the
// shard's frames, admit their records into N(p0) in place as they are
// checked (the kernel's admission half, core.Admitter), join them with
// the kernel's join half (core.Builder.Join) as an in-core level's
// records are joined, write the sealed output blocks as the next level's
// run-aligned shard files, and buffer the maximal dead ends for in-order
// emission (the two stages of pipeline.go).  internal/dist's workers
// and the local pool in pool.go both run Joiner.Join's pipeline, and
// JoinShardBytes runs its stages in turn, so the distributed,
// single-machine and in-core joins cannot drift.  A Joiner's scratch
// lives for the run; decode-ahead's goroutine lives for one level's
// join.

// JoinStats is one shard join's output: the maximal cliques found (a
// flat vertex arena, no per-clique allocation), the kernel's work on the
// shard, and the I/O the join performed.  The output shards are owned by
// the LevelWriter the caller supplied; Finish it to collect them.
type JoinStats struct {
	Maximal   int64
	Dropped   int64     // non-maximal cliques the |S| > 1 rule discarded
	Cost      core.Cost // the kernel's work counters
	EmitVerts []int
	EmitOff   []int32
	BytesRead int64
	Wait      time.Duration // the join stage's time blocked on decode-ahead
}

// Emit appends one maximal clique to the flat emission arena; JoinStats
// is the reporter the kernel emits a collecting join's cliques to.
func (s *JoinStats) Emit(c clique.Clique) {
	s.EmitVerts = append(s.EmitVerts, c...)
	s.EmitOff = append(s.EmitOff, int32(len(s.EmitVerts)))
}

// Joiner owns the per-worker state of the shard join: the join kernel in
// its two halves — a core.Admitter that maps each record into N(p0) and
// rebuilds its prefix row from its memo of the record before, and a
// core.Builder without a universe that joins the admitted records over
// its own copy of the group, applies the paper's |S| > 1 rule (so a
// level on disk holds exactly the cliques the in-core level would) and
// seals the survivors into blocks — and reports maximal cliques.  A
// record outside N(p0), which only a damaged or forged shard holds,
// fails its shard.  It is not safe for concurrent use; give each worker
// its own: the pool keeps one per worker for the run and runs each on
// goroutines of its own at every level, the admitter on decode-ahead's
// and the builder, which also writes the output, on the join's.
type Joiner struct {
	g   graph.Interface
	adm *core.Admitter // the admission half: decode-ahead's
	b   *core.Builder  // the join half, which holds no universe
	rec core.Admitted  // the join stage's view of an admitted record, with its copy of the group
	dec *decodeAhead   // decode-ahead's queues, buffers and window, made once
	bw  *bufio.Writer  // the join's file buffer between levels

	mark int // the builder's blocks already written
}

// NewJoiner returns a Joiner over g with freshly allocated scratch, its
// pipeline uncapped.
func NewJoiner(g graph.Interface) *Joiner { return newJoiner(g, 0) }

// newJoiner is NewJoiner with a pipeline whose buffers may take buf bytes
// each, the share of headroom the joiner keeps for its life (0 =
// uncapped; bufShare, shapeFor).  Decode-ahead's queues, block buffers
// and read window — which every shard is read through — are made here,
// once, like the kernel's arena.
func newJoiner(g graph.Interface, buf int64) *Joiner {
	shape := shapeFor(buf)
	adm := core.NewAdmitter(g)
	return &Joiner{g: g, adm: adm, b: core.NewJoinBuilder(g, bitset.NewPool(g.N())), dec: &decodeAhead{
		n:     g.N(),
		out:   make(chan inPiece, shape.depth), // a piece per buffer in flight
		free:  make(chan inBuf, shape.depth),   // room for every buffer
		shape: shape,
		br:    bufio.NewReaderSize(nil, bufSize(shape.io, 0)),
		adm:   adm,
	}}
}

// ScratchBytes reports the joiner's resident scratch right now — what a
// coordinator reserves against its governor on the worker's behalf, so
// one budget authority still sees every process's scratch: the
// admitter's universe, the join's copy of the group and its prefix memo,
// which grow with the widest p0 group and the deepest prefix joined and
// charge what they add to the builder's governor.
func (j *Joiner) ScratchBytes() int64 {
	return j.adm.ScratchBytes() + j.rec.Bytes() + j.b.ScratchBytes()
}

// ShardJob is the work order for one shard join: the input shard In of
// size-K records in Dir, and how the (K+1)-candidates are written —
// output shards of about Target bytes in Dir, named by NewShard,
// every batch's bytes reported to OnWrite, which may abort the join.  Gov
// is charged with the input blocks and the I/O buffers while they are in
// flight, sized as the joiner's pipeline is (newJoiner); the output
// blocks are charged to the joiner's builder's governor.
type ShardJob struct {
	Dir      string
	K        int
	In       ShardMeta
	Target   int64
	Collect  bool // buffer the maximal cliques, not only count them
	Gov      *membudget.Governor
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
// last output shard, through the two stages the in-process pool runs
// over a level's shards, here over a list of one.  On error the partial
// output is closed (its files are the level driver's to sweep) and the
// result still carries the bytes the join read.
func (j *Joiner) Join(ctx context.Context, job *ShardJob) (ShardResult, error) {
	var res ShardResult
	read, err := j.run(ctx, job, &shardList{shards: []ShardMeta{job.In}}, func(_ int, r ShardResult) { res = r })
	if err != nil {
		return ShardResult{JoinStats: JoinStats{BytesRead: read}}, err
	}
	return res, nil
}

// JoinShardBytes joins one input shard of size-k records from an
// in-memory copy of its file, writing next-level candidates through out
// (which the caller owns: Finish it for the output shard list, Abort it
// on error).  collect buffers maximal-clique emissions in the returned
// JoinStats; pass false when only counts are wanted.  It is Join's
// stages in turn on the calling goroutine, for callers that time the
// writer themselves.  compress is ignored: a level has one format.
func (j *Joiner) JoinShardBytes(ctx context.Context, data []byte, in ShardMeta, k int,
	compress bool, out *LevelWriter, collect bool) (JoinStats, error) {
	r, err := OpenShardBytes(data, in, k, j.g.N(), false)
	if err != nil {
		return JoinStats{}, err
	}
	var st JoinStats
	defer func() { j.b.Abandon(j.mark) }()
	err = j.joinSerial(ctx, r, core.MaxBlockBytes/4, collector(&st, collect), &st, serialOutput{lw: out, gov: j.b.Gov})
	return st, err
}

// serialOutput writes each batch in the joining goroutine as it comes
// and releases its charge.
type serialOutput struct {
	lw  *LevelWriter
	gov *membudget.Governor
}

func (o serialOutput) write(blocks []core.Block) error {
	err := o.lw.writeBlocks(blocks)
	release(o.gov, blocks)
	return err
}

// WriteLevel writes one level's sorted record stream — produced by feed
// a prefix run at a time (LevelWriter.WriteRun), in canonical order, the
// run-aligned sharding invariant — into dir as shard files of roughly
// target bytes.  nextName names each shard file; onWrite observes every
// frame's on-disk/raw byte increment (and may return an error to abort
// the level, e.g. a spill budget).  On a feed or write error every shard
// file created so far is removed and the error returned; on success the
// level's shard list is returned.  compress is ignored: a level has one
// format.  The level driver writes the blocks of every level it does not
// join (Loop.spill); WriteLevel is for streams that are not blocks yet.
func WriteLevel(dir string, k int, compress bool, target int64,
	gov *membudget.Governor, nextName func() (string, error),
	onWrite func(enc, raw int64) error,
	feed func(write func(prefix, tails []uint32) error) error) ([]ShardMeta, error) {
	return writeLevel(dir, k, target, gov, nextName, onWrite, func(lw *LevelWriter) error {
		return errors.Join(feed(lw.WriteRun), lw.flush())
	})
}

// writeLevel runs feed over a fresh LevelWriter of the level's files and
// finishes it, or aborts it and removes every file it created.
func writeLevel(dir string, k int, target int64, gov *membudget.Governor,
	nextName func() (string, error), onWrite func(enc, raw int64) error,
	feed func(*LevelWriter) error) ([]ShardMeta, error) {
	var created []string
	lw := NewLevelWriter(dir, k, false, target, gov,
		func() (string, error) {
			name, err := nextName()
			if err == nil {
				created = append(created, name)
			}
			return name, err
		},
		onWrite)
	lw.bufCap = bufShare(gov, 1) // the one buffer open while a level is fed
	if werr := feed(lw); werr != nil {
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
// above u).  ctx cancels between batches of 4096 edges.  The level loop
// seeds through core.Seed (Loop.RunSeed); EdgeFeed is kept for the
// benchmark harness, which spills the edge level with it.
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
// bytes on disk: about two shards per worker, so the workers claiming
// them in order (or the distributed lease table) can still balance
// skewed shard costs and a worker's next shard is read while it joins
// one, but no smaller than 512 KiB.  The floor amortizes what every file
// costs beside its bytes — a create in the join, an open in
// decode-ahead, an unlink when the level is consumed: on a 2-vCPU ext4
// machine a create alone measured about 0.2 ms.  Huge levels are capped
// at 32 MiB a shard.
func DefaultShardTarget(consumedBytes int64, workers int) int64 {
	const minTarget, maxTarget = 512 << 10, 32 << 20
	return min(max(consumedBytes/int64(2*max(workers, 1)), minTarget), maxTarget)
}

// ShardFileName builds the canonical shard file name for level k with a
// distinguishing tag (the engine uses a global sequence; the
// distributed coordinator embeds shard index and lease attempt so a
// superseded worker's output can never collide with its replacement's).
func ShardFileName(k int, tag string) string {
	return fmt.Sprintf("l%03d-%s%s", k, tag, shardSuffix)
}
