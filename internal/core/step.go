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
	mode CNMode
	pool *bitset.Pool

	Kept    int // sub-lists retained for the next level (N[k+1] so far)
	Maximal int64
	Dropped int64 // non-maximal cliques discarded from singleton sub-lists
	Cost    Cost

	// Gov, when non-nil, is the run's memory governor: every block of the
	// next level is charged against it when it is sealed, and the scratch
	// of the local universe when it grows.  The governor may be shared by
	// many builders; charges are atomic.
	Gov *membudget.Governor

	// Ctx, when non-nil, lets Step abandon a level between sub-lists;
	// Canceled records that it did (and is cleared by Reset).  RunLevel
	// takes its context as an argument and touches neither.
	Ctx      context.Context
	Canceled bool

	words   int // ⌈n/64⌉: the paper's row, what Cost charges a row operation
	emitBuf clique.Clique

	u universe // the local universe of the p0 group being joined (local.go)

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
// Builders (bitset.Pool is concurrency-safe).
func NewBuilderMode(g graph.Interface, mode CNMode, pool *bitset.Pool) *Builder {
	b := &Builder{
		mode:  mode,
		pool:  pool,
		words: (g.N() + 63) / 64,
		u:     universe{Local: graph.NewLocal(g)},
		sink:  newBlockSink(nil),
	}
	return b
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
// scratch right now — the local universe: its rank table, rows and memo
// (local.go) — independent of any level's candidates.  Whoever adopts
// the builder charges it to the governor and releases it (read again:
// the scratch may have grown) when done; in between the builder charges
// what it adds to Gov itself, so the charged amount tracks ScratchBytes
// at every instant.
func (b *Builder) ScratchBytes() int64 {
	return b.u.Local.Bytes() + 4*int64(cap(b.u.lt)) + 8*int64(cap(b.u.memo)+cap(b.u.cv))
}

// ProcessSubList is the paper's GenerateKCliques inner loop for one
// sub-list (Figure 3): it joins tail pairs into (k+1)-cliques, reports
// maximal ones to r, and appends surviving candidate sub-lists to the
// builder.  The input sub-list's bitmap is released back to the pool.
// s must lie in N(p0), as every record of an in-core level does: the
// kernel wrote it; a record from outside input goes through
// ProcessRecord.
//
// Cost accounting and generation are exact regardless of Builder mode.
func (b *Builder) ProcessSubList(s *SubList, r clique.Reporter) {
	if err := b.ProcessRecord(s, r); err != nil {
		panic(err)
	}
}

// ProcessRecord is ProcessSubList for a record read from outside input:
// one whose prefix vertex or tail lies outside N(p0) is an error, found
// before the record emits, retains, drops or counts anything.
//
//repro:hotpath
func (b *Builder) ProcessRecord(s *SubList, r clique.Reporter) error {
	// The next record's lcp is measured against this one, joined or not,
	// so the front-coding carry takes it in either way.
	b.sink.carry = min(b.sink.carry, s.LCP)
	cn, ok := b.admitPrefix(s)
	if !ok {
		return outside(s)
	}
	if b.u.W == 1 {
		b.joinWord(s, cn[0], r)
	} else {
		b.joinWords(s, cn, r)
	}
	s.takeCN(b.pool)
	return nil
}

// joinWord is the join over a one-word universe (deg p0 <= 64, every
// group of the paper's graphs): for each tail v, CN(prefix+v) is one
// word, and the pair test and the maximality probe one AND each.  The
// probe for (prefix, v, u) is CN(prefix+v) ∩ N(u) = ∅ — the paper's
// BitOneExists over N(p0), where every common neighbour lies.  Cost
// charges the paper's machine: ⌈n/64⌉ words an AND and a probe.
// joinWords gives the same result at w = 1; this copy keeps CN(prefix+v)
// in a register and exists for speed alone: through joinWords the
// sequential join of C×0.75 takes about 12 % longer, and hybrid-c75's
// wall time about 10 % (DESIGN §3.1).
//
//repro:hotpath
func (b *Builder) joinWord(s *SubList, cn uint64, r clique.Reporter) {
	rows, slot, lt, tails := b.u.Rows, b.u.Slot, b.u.lt, s.Tails
	for i := 0; i < len(lt)-1; i++ {
		rv := rows[slot[lt[i]]]
		cv := cn & rv
		b.Cost.ANDWords += int64(b.words)
		b.Cost.Pairs += int64(len(lt) - 1 - i)
		b.tailScratch = b.tailScratch[:0]
		for j := i + 1; j < len(lt); j++ {
			lu := lt[j]
			if rv&(1<<(lu&63)) == 0 {
				continue
			}
			b.Cost.Probes += int64(b.words)
			b.Cost.Generated++
			if cv&rows[slot[lu]] != 0 {
				b.tailScratch = append(b.tailScratch, tails[j])
			} else {
				b.emitMaximal(s.Prefix, int(tails[i]), int(tails[j]), r)
			}
		}
		b.u.cv[0] = cv
		b.keep(s.Prefix, int(tails[i]), b.tailScratch)
	}
}

// joinWords is joinWord over a universe of any width w.
//
//repro:hotpath
func (b *Builder) joinWords(s *SubList, cn []uint64, r clique.Reporter) {
	w, rows, slot, lt, tails := b.u.W, b.u.Rows, b.u.Slot, b.u.lt, s.Tails
	cv, cn := b.u.cv[:w], cn[:w]
	for i := 0; i < len(lt)-1; i++ {
		rv := rows[int(slot[lt[i]])*w:][:w]
		for x := range cv {
			cv[x] = cn[x] & rv[x]
		}
		b.Cost.ANDWords += int64(b.words)
		b.Cost.Pairs += int64(len(lt) - 1 - i)
		b.tailScratch = b.tailScratch[:0]
		for j := i + 1; j < len(lt); j++ {
			lu := lt[j]
			if rv[lu>>6]&(1<<(lu&63)) == 0 {
				continue
			}
			b.Cost.Probes += int64(b.words)
			b.Cost.Generated++
			ru, alive := rows[int(slot[lu])*w:][:w], false
			for x := 0; x < w && !alive; x++ {
				alive = cv[x]&ru[x] != 0
			}
			if alive {
				b.tailScratch = append(b.tailScratch, tails[j])
			} else {
				b.emitMaximal(s.Prefix, int(tails[i]), int(tails[j]), r)
			}
		}
		b.keep(s.Prefix, int(tails[i]), b.tailScratch)
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

// keep retains the surviving candidate sub-list (prefix+v with the given
// tails) whose common-neighbor row over N(p0) is b.u.cv, applying the
// paper's |S_{k+1}| > 1 rule.  newTails may alias the builder's tail
// scratch: the sink copies it.
//
//repro:hotpath
func (b *Builder) keep(prefix []uint32, v int, newTails []uint32) {
	switch {
	case len(newTails) > 1:
		var cn *bitset.Bitset
		if b.mode == CNStore {
			cn = b.scatter()
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
