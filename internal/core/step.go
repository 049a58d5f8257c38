package core

import (
	"context"
	"math/bits"

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

	// Ctx, when non-nil, lets Step abandon a level where a run starts;
	// Canceled records that it did (and is cleared by Reset).  RunLevel
	// takes its context as an argument and touches neither.
	Ctx      context.Context
	Canceled bool

	words   int // ⌈n/64⌉: the paper's row, what Cost charges a row operation
	emitBuf clique.Clique

	// adm is the admission half (local.go), nil for a builder that only
	// joins records admitted elsewhere.
	adm *Admitter

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
	b := NewJoinBuilder(g, pool)
	b.mode, b.adm = mode, NewAdmitter(g)
	return b
}

// NewJoinBuilder returns a CNRecompute Builder without an admission half:
// it holds no universe, and its records reach it admitted, through Join —
// the out-of-core join stage's, fed by decode-ahead's admission.
func NewJoinBuilder(g graph.Interface, pool *bitset.Pool) *Builder {
	return &Builder{pool: pool, words: (g.N() + 63) / 64, sink: newBlockSink(nil)}
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

// Sealed returns the blocks sealed since mark and leaves what is open
// open: unlike Since it starts no run, so a consumer that takes the
// output a chunk at a time in the middle of an input block changes no
// word of it.
func (b *Builder) Sealed(mark int) []Block {
	out := b.sink.out
	return out[mark:len(out):len(out)]
}

// SealRuns seals the open block's whole runs and leaves the run being
// written open: a consumer that bounds the output it lets pile up cuts it
// where the stream starts a run anyway, which changes no word.
func (b *Builder) SealRuns() { b.sink.seal(b.sink.run, b.sink.atRun) }

// Open returns the words of output the builder holds unsealed: what Since
// would seal beside the blocks Mark counts.
func (b *Builder) Open() int { return b.sink.pos - b.sink.lo }

// Abandon forgets what was retained since mark, releasing its charges:
// the input it came from will be joined again, or never.
func (b *Builder) Abandon(mark int) { b.sink.abandon(mark, b.pool) }

// ScratchBytes returns the resident footprint of the builder's private
// scratch right now — its admitter's local universe: the rank table,
// rows and memo (local.go) — independent of any level's candidates; a
// builder without an admitter has none.  Whoever adopts the builder
// charges it to the governor and releases it (read again: the scratch may
// have grown) when done; in between the builder charges what it adds to
// Gov itself, so the charged amount tracks ScratchBytes at every instant.
func (b *Builder) ScratchBytes() int64 {
	if b.adm == nil {
		return 0
	}
	return b.adm.ScratchBytes()
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
// before the record emits, retains, drops or counts anything.  It runs
// the kernel's two halves in turn: the builder's Admitter, then Join.
//
//repro:hotpath
func (b *Builder) ProcessRecord(s *SubList, r clique.Reporter) error {
	a, err := b.adm.Admit(s, b.Gov)
	if err != nil {
		b.sink.carry = min(b.sink.carry, s.LCP) // joined or not, as Join takes it
		return err
	}
	b.Join(a, r)
	s.takeCN(b.pool)
	return nil
}

// Join is the join half of the kernel: it joins the admitted record's
// tail pairs, reports the maximal (k+1)-cliques to r and retains the
// surviving sub-lists, reading nothing but a — no universe, no memo —
// and writing only a.CV, and books the record's Cost, its prefix's
// rebuild at ⌈n/64⌉ words an AND included.
//
//repro:hotpath
func (b *Builder) Join(a *Admitted, r clique.Reporter) {
	b.book(a)
	if a.W == 1 {
		b.joinWord(a, r)
	} else {
		b.joinWords(a, r)
	}
}

// book takes in what Join counts of a whichever loop joins it: its lcp
// for the front-coding carry — the next record's lcp is measured against
// this one, joined or not — and the row ANDs of its prefix's rebuild
// (Admitter.Map): none for a stored bitmap, and none for the first lcp
// vertices, whose rows the memo kept, or for row 0, a copy of N(p0).
//
//repro:hotpath
func (b *Builder) book(a *Admitted) {
	b.sink.carry = min(b.sink.carry, a.LCP)
	if !a.Stored && a.LCP < len(a.Prefix) {
		b.Cost.ANDWords += int64(len(a.Prefix)-max(a.LCP, 1)) * int64(b.words)
	}
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
func (b *Builder) joinWord(a *Admitted, r clique.Reporter) {
	rows, slot, lt, nbr, cn := a.Rows, a.Slot, a.Tails, a.Nbr, a.CN[0]
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
				b.tailScratch = append(b.tailScratch, nbr[lu])
			} else {
				b.emitMaximal(a.Prefix, int(nbr[lt[i]]), int(nbr[lu]), r)
			}
		}
		a.CV[0] = cv
		b.keep(a, int(nbr[lt[i]]), b.tailScratch)
	}
}

// joinWords is joinWord over a universe of any width w.
//
//repro:hotpath
func (b *Builder) joinWords(a *Admitted, r clique.Reporter) {
	w, rows, slot, lt, nbr := a.W, a.Rows, a.Slot, a.Tails, a.Nbr
	cv, cn := a.CV[:w], a.CN[:w]
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
				b.tailScratch = append(b.tailScratch, nbr[lu])
			} else {
				b.emitMaximal(a.Prefix, int(nbr[lt[i]]), int(nbr[lu]), r)
			}
		}
		b.keep(a, int(nbr[lt[i]]), b.tailScratch)
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

// keep retains the surviving candidate sub-list (a's prefix+v with the
// given tails) whose common-neighbor row over N(p0) is a.CV, applying the
// paper's |S_{k+1}| > 1 rule.  newTails may alias the builder's tail
// scratch: the sink copies it.
//
//repro:hotpath
func (b *Builder) keep(a *Admitted, v int, newTails []uint32) {
	switch {
	case len(newTails) > 1:
		var cn *bitset.Bitset
		if b.mode == CNStore {
			cn = b.scatter(a)
		}
		b.sink.append(a.Prefix, uint32(v), newTails, cn)
		b.Kept++
	case len(newTails) == 1:
		// A lone non-maximal clique cannot join with a sibling; the
		// paper's |S_{k+1}| > 1 rule discards it.
		b.Dropped++
	}
}

// RunLevel is the sequential level engine: one generation step on this
// builder, emitting straight to r — no merger, no emission copies.  ctx
// and trip (nil = never) are polled where a run starts and stop the level
// there, with the cut documented on LevelOutcome.  The input level's
// bitmaps are recycled.  homes is the pool engine's scheduling input and
// ignored.
func (b *Builder) RunLevel(ctx context.Context, lvl *Level, _ []int32,
	r clique.Reporter, trip func() bool) LevelOutcome {
	out := LevelOutcome{Stats: lvl.Consumed(), Frontier: Cursor{Block: len(lvl.Sub)}}
	b.Reset()
	it := &b.iter
blocks:
	for bi := range lvl.Sub {
		it.Reset(lvl.K, &lvl.Sub[bi])
		for at := 0; ; at = it.pos {
			s := it.Next()
			if s == nil {
				break
			}
			if s.LCP == 0 {
				tripped := trip != nil && trip()
				if tripped || ctx != nil && ctx.Err() != nil {
					out.Frontier, out.Tripped = Cursor{bi, at}, tripped
					break blocks
				}
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

// scatter writes CN(prefix+v), held in a.CV over a's N(p0), into a bitmap
// over the graph's universe: the stored bitmap CNStore keeps.
func (b *Builder) scatter(a *Admitted) *bitset.Bitset {
	cn := b.pool.Get()
	for x, word := range a.CV {
		for ; word != 0; word &= word - 1 {
			cn.Set(int(a.Nbr[x<<6+bits.TrailingZeros64(word)]))
		}
	}
	return cn
}
