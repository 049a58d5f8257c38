package core

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// Cost records the work performed while processing sub-lists, in the
// abstract units the simulated-machine replayer charges: bitmap-AND word
// operations, tail pair adjacency checks, and maximality probes.  It is
// additive across sub-lists.
type Cost struct {
	ANDWords  int64 // words touched by common-neighbor ANDs
	Pairs     int64 // tail pairs examined for adjacency
	Probes    int64 // maximality probes (worst-case words each)
	Generated int64 // cliques generated (maximal + candidate)
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.ANDWords += o.ANDWords
	c.Pairs += o.Pairs
	c.Probes += o.Probes
	c.Generated += o.Generated
}

// Units collapses the cost into a single scalar work measure.  Pair checks
// are single-word operations; AND and probe terms are word-counted
// already.
func (c Cost) Units() int64 { return c.ANDWords + c.Pairs + c.Probes }

// Builder accumulates the next level's sub-lists plus statistics.  Each
// worker thread owns one Builder, so generation needs no locking — the
// independence property the paper's multithreading rests on.
type Builder struct {
	g     graph.Interface
	dense *graph.Graph // non-nil when g is the dense backend (fast path)
	mode  CNMode
	pool  *bitset.Pool

	Kept    int // sub-lists retained for the next level (N[k+1] so far)
	Maximal int64
	Dropped int64 // non-maximal cliques discarded from singleton sub-lists
	Cost    Cost

	// Gov, when non-nil, is the run's memory governor: every block of the
	// next level is charged against it when it is sealed, and every memo
	// row when it is added.  The governor may be shared by many builders;
	// charges are atomic.
	Gov *membudget.Governor

	// Ctx, when non-nil, lets Step abandon a level between sub-lists;
	// Canceled records that it did (and is cleared by Reset).  RunLevel
	// takes its context as an argument and touches neither.
	Ctx      context.Context
	Canceled bool

	// matRows: rows of this representation have expensive per-bit Test
	// (WAH walks the compressed stream from the start on every probe),
	// so the generic join materializes each tail row once into
	// rowScratch instead of probing the row per pair.
	matRows bool

	words      int
	cnBytes    int
	scratch    *bitset.Bitset // CN of the current k-clique being extended
	rowScratch *bitset.Bitset // a materialized tail row; read only when matRows, resident always
	emitBuf    clique.Clique

	// The prefix-CN memo of the reconstruct path: memo[i] is the
	// common-neighbor bitmap of memoPrefix[:i+1] for i < memoRows, so a
	// sub-list that shares its first l prefix vertices with the previous
	// one reuses rows below l and ANDs only the rest.  memoPrefix is the
	// whole prefix of the sub-list reconstructed last; the dense join
	// keeps its rows one short of it (see processDense).  Rows are added
	// (and charged to Gov) as prefixes deepen — at most one per level.
	memo       []*bitset.Bitset
	memoPrefix []uint32
	memoRows   int

	// The next level's store (see block.go): retained sub-lists are
	// appended to sink as front-coded records.  The survivors of one join
	// accumulate in tailScratch first, so a sub-list the |S| > 1 rule
	// drops never touches the store.  iter decodes the level RunLevel
	// consumes.
	sink        blockSink
	tailScratch []uint32
	iter        Iter
}

// NewBuilderMode returns a Builder generating into graph g's universe.
// mode selects how retained sub-lists keep their prefix bitmaps; pool
// supplies and recycles common-neighbor bitmaps and may be shared across
// Builders (bitset.Pool is concurrency-safe).  A dense graph is detected
// once here, so the hot generation loop branches on a nil check instead
// of a per-pair interface dispatch.
func NewBuilderMode(g graph.Interface, mode CNMode, pool *bitset.Pool) *Builder {
	words := (g.N() + 63) / 64
	dense, _ := g.(*graph.Graph)
	_, compressed := g.(*graph.CompressedGraph)
	return &Builder{
		g:          g,
		dense:      dense,
		mode:       mode,
		pool:       pool,
		matRows:    compressed,
		words:      words,
		cnBytes:    words * 8,
		scratch:    bitset.New(g.N()),
		rowScratch: bitset.New(g.N()),
		sink:       newBlockSink(nil),
	}
}

// Reset clears the builder for a new level, retaining scratch storage and
// the budget setting.  It is also the arena generation boundary: level
// storage handed out two Resets ago backed a level that has since been
// consumed, so its chunks (and the block list of that generation) are
// recycled here.  Callers that hold a produced Level must therefore
// consume it within one further Reset — the discipline every driver's
// at-most-two-levels-resident loop already follows.
func (b *Builder) Reset() {
	b.sink.gov = b.Gov
	b.sink.reset()
	b.Kept = 0
	b.Maximal = 0
	b.Dropped = 0
	b.Cost = Cost{}
	b.Canceled = false
}

// Level seals what the builder has retained since Reset and returns it
// as the level of k-cliques it is.
func (b *Builder) Level(k int) *Level {
	return &Level{K: k, Sub: b.sink.finish(0)}
}

// Mark returns a position in the builder's output that Since and Abandon
// refer to: the streaming pool brackets each input block with it.  It
// counts the blocks sealed since Reset, so the on-disk join reads a Mark
// past its last hand-off as "a chunk of output is full: hand it on".
func (b *Builder) Mark() int { return len(b.sink.out) }

// Since seals what is open and returns the blocks retained since mark —
// one input block's output (or, out of core, one chunk's), self-contained,
// ready for in-order release or for the shard writer.
func (b *Builder) Since(mark int) []Block { return b.sink.finish(mark) }

// Open returns the words of output the builder holds unsealed: what Since
// would seal beside the blocks Mark counts.
func (b *Builder) Open() int { return b.sink.pos - b.sink.lo }

// Abandon forgets what was retained since mark, releasing its charges:
// the input it came from will be joined again, or never.
func (b *Builder) Abandon(mark int) { b.sink.abandon(mark, b.pool) }

// ScratchBytes returns the resident footprint of the builder's private
// scratch bitmaps right now — independent of any level's candidates.
// Whoever adopts the builder charges it to the governor and releases it
// (read again: the memo may have grown) when done; in between the
// builder charges the memo rows it adds to Gov itself, so the charged
// amount tracks ScratchBytes at every instant.
func (b *Builder) ScratchBytes() int64 {
	return (2 + int64(len(b.memo))) * int64(b.cnBytes) // scratch + rowScratch + memo rows
}

// prefixCN returns the common-neighbor bitmap of s.Prefix: the stored
// one, or a reconstruction by ANDs over adjacency rows (the paper's
// memory-saving alternative) from the memo.
//
//repro:hotpath
func (b *Builder) prefixCN(s *SubList) *bitset.Bitset {
	if s.CN != nil {
		return s.CN
	}
	return b.memoRow(s, len(s.Prefix))
}

// memoRow returns the common-neighbor bitmap of the first depth vertices
// of s.Prefix (nil for depth 0), rebuilding the memo rows the previous
// sub-list does not share.  The reconstruction is memoised against the
// previous sub-list: rows below the shared prefix length are reused, so
// consecutive sorted sub-lists cost one or two ANDs instead of k-2.  The
// shared length is the record's lcp where its source knows one; a run
// start (lcp 0) is compared against the memo, which depends only on the
// graph, so any processing order and any mix of depths is correct.
//
// Cost.ANDWords charges the reconstruction of the whole prefix, whatever
// depth is asked for: that is the paper's abstract machine's work, and
// a join that folds the last prefix row into its probes still does it,
// once per probe word instead of once per sub-list.
//
//repro:hotpath
func (b *Builder) memoRow(s *SubList, depth int) *bitset.Bitset {
	p := s.Prefix
	l := s.LCP
	if l == 0 {
		for l < len(p) && l < len(b.memoPrefix) && p[l] == b.memoPrefix[l] {
			l++
		}
	}
	if l < len(p) {
		b.Cost.ANDWords += int64(len(p)-max(l, 1)) * int64(b.words) // row 0 is a copy, not an AND
	}
	if len(b.memo) < depth || cap(b.memoPrefix) < len(p) {
		b.growMemo(depth, len(p))
	}
	valid := min(l, b.memoRows)
	for i := valid; i < depth; i++ {
		switch {
		case i == 0 && b.dense != nil:
			b.memo[0].CopyFrom(b.dense.Neighbors(int(p[0])))
		case i == 0:
			b.g.Materialize(int(p[0]), b.memo[0])
		case b.dense != nil:
			b.memo[i].And(b.memo[i-1], b.dense.Neighbors(int(p[i])))
		default:
			b.g.Row(int(p[i])).AndInto(b.memo[i], b.memo[i-1])
		}
	}
	b.memoRows = max(depth, valid)
	b.memoPrefix = b.memoPrefix[:len(p)]
	copy(b.memoPrefix[l:], p[l:])
	if depth == 0 {
		return nil
	}
	return b.memo[depth-1]
}

// growMemo deepens the memo to rows rows and its prefix to hold plen
// vertices; out of line so memoRow's rare growth stays off the
// hotalloc-pinned path.
//
//nolint:budgetpair the rows are builder scratch: whoever adopted the builder releases them with ScratchBytes
func (b *Builder) growMemo(rows, plen int) {
	if cap(b.memoPrefix) < plen {
		grown := make([]uint32, len(b.memoPrefix), plen)
		copy(grown, b.memoPrefix)
		b.memoPrefix = grown
	}
	for len(b.memo) < rows {
		b.memo = append(b.memo, bitset.New(b.g.N()))
		b.Gov.Charge(int64(b.cnBytes))
	}
}

// ProcessSubList is the paper's GenerateKCliques inner loop for one
// sub-list (Figure 3): it joins tail pairs into (k+1)-cliques, reports
// maximal ones to r, and appends surviving candidate sub-lists to the
// builder.  The input sub-list's bitmap is released back to the pool.
//
// Cost accounting and generation are exact regardless of Builder mode.
func (b *Builder) ProcessSubList(s *SubList, r clique.Reporter) {
	b.sink.carry = min(b.sink.carry, s.LCP)
	if b.dense != nil {
		b.processDense(s, r)
	} else {
		b.processGeneric(s, b.prefixCN(s), r)
	}
	s.takeCN(b.pool)
}

// processDense is the inner loop over the dense bitmap backend: direct
// row pointers and fused AND-any probes.  Without a stored bitmap the
// prefix's common neighbours are never materialized: the probe ANDs the
// memo row of the prefix without its last vertex x with N(x) on the fly,
// so a sub-list whose prefix differs from its predecessor's in x alone —
// every sibling of a run — rebuilds no row at all.  Survivors accumulate
// in the builder's tail scratch; keep appends them to the level store
// only when the sub-list is retained.
//
//repro:hotpath
func (b *Builder) processDense(s *SubList, r clique.Reporter) {
	// The probe's prefix operands: base ∩ nx is CN(prefix), nx nil when
	// base is all of it — a stored bitmap, or N(x) for a one-vertex prefix.
	var nx *bitset.Bitset
	base := s.CN
	if base == nil {
		p := s.Prefix
		nx = b.dense.Neighbors(int(p[len(p)-1]))
		if base = b.memoRow(s, len(p)-1); base == nil {
			base, nx = nx, nil
		}
	}
	tails := s.Tails
	for i := 0; i < len(tails)-1; i++ {
		v := int(tails[i])
		nv := b.dense.Neighbors(v)
		// CN(prefix+v) is needed only if this sub-list survives into the
		// next level: the maximality probes run fused over (base, nx, nv,
		// N(u)) without it, so the materialize is deferred to keepLazy.
		// The cost model still charges the AND — it is the work the
		// paper's abstract machine performs for this join.
		b.Cost.ANDWords += int64(b.words)

		b.tailScratch = b.tailScratch[:0]
		for j := i + 1; j < len(tails); j++ {
			u := int(tails[j])
			b.Cost.Pairs++
			if !nv.Test(u) {
				continue
			}
			// (prefix, v, u) is a (k+1)-clique; it is maximal iff
			// CN(prefix+v) ∩ N(u) is empty.
			b.Cost.Probes += int64(b.words)
			b.Cost.Generated++
			var alive bool
			if nx == nil {
				alive = bitset.AndAny3(base, nv, b.dense.Neighbors(u))
			} else {
				alive = bitset.AndAny4(base, nx, nv, b.dense.Neighbors(u))
			}
			if alive {
				b.tailScratch = append(b.tailScratch, uint32(u))
			} else {
				b.emitMaximal(s.Prefix, v, u, r)
			}
		}
		b.keepLazy(s.Prefix, v, b.tailScratch, base, nx, nv)
	}
}

// processGeneric is the same join over the representation-independent
// row contract: adjacency tests and maximality probes run on the rows'
// native encodings (CSR: neighbor-list walks and binary searches; WAH:
// compressed-stream walks), so no graph row is densified per pair.
//
//repro:hotpath
func (b *Builder) processGeneric(s *SubList, prefixCN *bitset.Bitset, r clique.Reporter) {
	tails := s.Tails
	for i := 0; i < len(tails)-1; i++ {
		v := int(tails[i])
		rv := b.g.Row(v)
		var nv *bitset.Bitset
		if b.matRows && len(tails)-i > 8 {
			// Expensive-Test rows (WAH): when enough pairs remain,
			// densify N(v) once so the per-pair adjacency probe is O(1)
			// instead of a compressed-stream walk per pair.  Short tail
			// runs stay on the direct probe — one decompression would
			// cost more than the few probes it saves.  CN(prefix+v) is
			// not materialized here: the probes run fused over
			// (prefixCN, nv) against u's compressed row, and keepLazy
			// materializes only if the sub-list survives.
			b.g.Materialize(v, b.rowScratch)
			nv = b.rowScratch
		} else {
			// Common neighbors of the k-clique prefix+v.
			rv.AndInto(b.scratch, prefixCN)
		}
		b.Cost.ANDWords += int64(b.words)

		b.tailScratch = b.tailScratch[:0]
		for j := i + 1; j < len(tails); j++ {
			u := int(tails[j])
			b.Cost.Pairs++
			if nv != nil {
				if !nv.Test(u) {
					continue
				}
			} else if !rv.Test(u) {
				continue
			}
			b.Cost.Probes += int64(b.words)
			b.Cost.Generated++
			var alive bool
			if nv != nil {
				alive = b.g.Row(u).AndAnyWith(prefixCN, nv)
			} else {
				alive = b.g.Row(u).IntersectsWith(b.scratch)
			}
			if alive {
				b.tailScratch = append(b.tailScratch, uint32(u))
			} else {
				b.emitMaximal(s.Prefix, v, u, r)
			}
		}
		if nv != nil {
			b.keepLazy(s.Prefix, v, b.tailScratch, prefixCN, nil, nv)
		} else {
			b.keep(s.Prefix, v, b.tailScratch)
		}
	}
}

// emitMaximal reports the maximal clique prefix+v+u.
//
//repro:hotpath
func (b *Builder) emitMaximal(prefix []uint32, v, u int, r clique.Reporter) {
	b.Maximal++
	if r != nil {
		b.emitBuf = b.emitBuf[:0]
		for _, p := range prefix {
			b.emitBuf = append(b.emitBuf, int(p))
		}
		b.emitBuf = append(b.emitBuf, v, u)
		r.Emit(b.emitBuf)
	}
}

// keepLazy is keep for the fused join paths, which skip the CN(prefix+v)
// materialize during probing: it performs the deferred scratch = base
// AND nx AND nv (nx nil: base alone is CN(prefix)) only when keep will
// actually consume scratch — a retained sub-list in a CN-carrying mode.
// Recompute mode never touches scratch, and the |S| <= 1 cases retain
// nothing, so most joins never pay the materialize at all.
//
//repro:hotpath
func (b *Builder) keepLazy(prefix []uint32, v int, newTails []uint32, base, nx, nv *bitset.Bitset) {
	if len(newTails) > 1 && b.mode != CNRecompute {
		b.scratch.And(base, nv)
		if nx != nil {
			b.scratch.And(b.scratch, nx)
		}
	}
	b.keep(prefix, v, newTails)
}

// keep retains the surviving candidate sub-list (prefix+v with the given
// tails) whose common-neighbor bitmap is b.scratch, applying the paper's
// |S_{k+1}| > 1 rule.  newTails may alias the builder's tail scratch: the
// sink copies it.
//
//repro:hotpath
func (b *Builder) keep(prefix []uint32, v int, newTails []uint32) {
	switch {
	case len(newTails) > 1:
		var cn *bitset.Bitset
		if b.mode == CNStore {
			cn = b.pool.GetNoClear()
			cn.CopyFrom(b.scratch)
		}
		b.sink.append(prefix, uint32(v), newTails, cn)
		b.Kept++
	case len(newTails) == 1:
		// A lone non-maximal clique cannot join with a sibling; the
		// paper's |S_{k+1}| > 1 rule discards it.
		b.Dropped++
	}
}

// RunLevel is the sequential level engine: one generation step on this
// builder, emitting straight to r — no merger, no emission copies.  ctx
// (every 64 sub-lists) and trip (every sub-list; nil = never) stop the
// level early with the cut documented on LevelOutcome.  The input
// level's bitmaps are recycled.  homes is the pool engine's scheduling
// input and ignored.
func (b *Builder) RunLevel(ctx context.Context, lvl *Level, _ []int32,
	r clique.Reporter, trip func() bool) LevelOutcome {
	out := LevelOutcome{
		Stats: LevelStats{
			FromK:    lvl.K,
			Sublists: lvl.Sublists(),
			Cliques:  lvl.Cliques(),
			Bytes:    lvl.Bytes(),
		},
		Frontier: Cursor{Block: len(lvl.Sub)},
	}
	b.Reset()
	it, seen := &b.iter, 0
blocks:
	for bi := range lvl.Sub {
		it.Reset(lvl.K, &lvl.Sub[bi])
		for ri := 0; ; ri++ {
			s := it.Next()
			if s == nil {
				break
			}
			if ctx != nil && seen&63 == 0 && ctx.Err() != nil {
				out.Frontier = Cursor{bi, ri}
				break blocks
			}
			seen++
			if trip != nil && trip() {
				out.Frontier, out.Tripped = Cursor{bi, ri}, true
				break blocks
			}
			b.ProcessSubList(s, r)
		}
		it.mustEnd()
	}
	out.Next = b.Level(lvl.K + 1)
	st := &out.Stats
	st.NextSub = b.Kept
	st.NextCl = out.Next.Cliques()
	st.NextBytes = out.Next.Bytes()
	st.Maximal = b.Maximal
	st.Dropped = b.Dropped
	st.Cost = b.Cost
	return out
}

// Step runs one sequential generation step over an entire level and
// returns the next level with statistics: RunLevel for callers that
// drive their own loop on one builder (b.Ctx cancels, b.Canceled
// reports it).
func Step(_ graph.Interface, lvl *Level, r clique.Reporter, b *Builder) (*Level, LevelStats) {
	out := b.RunLevel(b.Ctx, lvl, nil, r, nil)
	b.Canceled = out.Frontier.Block < len(lvl.Sub)
	return out.Next, out.Stats
}
