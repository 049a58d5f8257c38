package core

import (
	"fmt"
	"iter"
	"slices"
	"unsafe"

	"repro/internal/membudget"
)

// The level store.  A level is an ordered list of blocks; a block is one
// contiguous []uint32 holding sub-lists as front-coded records — the
// words an out-of-core shard's frames hold on disk (lcp | suffix | tails),
// kept in memory as whole words:
//
//	header   lcp in bits 0-7, tail count in bits 8-23, bits 24-31 zero
//	[lcp]    one word, present when the lcp field reads lcpEscape
//	[count]  one word, present when the count field reads tailEscape
//	suffix   the prefix vertices past the first lcp, k-1-lcp words
//	tails    count words
//
// lcp is the number of leading prefix vertices the record takes over
// from the record before it in the block; the first record of a block
// stores 0, so every block decodes by itself and is the unit of pool
// dispatch and of governor charge.  A record with lcp 0 starts a *run*.
// Runs start where the stream says so, never where an engine happened to
// cut its work: a join's output starts a run exactly where its input did
// (the carry rule in blockSink.append) or where RunWords of output have
// accumulated since the last start, and an engine stops a level — on a
// trip or a cancellation — only where a run starts (Cursor), so the
// words of a level are one function of the graph and the bounds,
// whatever engine, worker count, schedule or budget produced them.  How
// the runs are grouped into blocks is the producer's business and
// changes no word.

const (
	lcpEscape  = 0xff
	tailEscape = 0xffff

	// RunWords is the most output a join front-codes against one run
	// start before it starts the next: the restart spells a whole prefix
	// again (about 2 % of the peak level on the paper's graph C), and
	// buys a place where a block may be cut.
	RunWords = 1 << 9

	// The chunk schedule of the level store: blocks are carved from
	// chunks that double from 2 KiB to 32 KiB, so tiny graphs carry tiny
	// levels while genome-scale ones settle on a handful of 32 KiB chunks
	// per generation.
	minChunkWords = 1 << 9
	maxChunkWords = 1 << 13

	// MaxBlockBytes is the most a sealed block charges at once, a single
	// record larger than a chunk aside: the granularity at which a
	// producing engine notices a tripped budget.
	MaxBlockBytes = 4 * maxChunkWords
)

// blockCounts is what a block's header carries about its records, so
// that no caller walks a level to size it.
type blockCounts struct {
	n     int   // sub-lists
	m     int64 // cliques: Σ tails
	pairs int64 // Σ t(t-1)/2 over the sub-lists: the tail pairs a join examines
}

func (c *blockCounts) sub(o blockCounts) {
	c.n -= o.n
	c.m -= o.m
	c.pairs -= o.pairs
}

// Block is one self-contained stretch of a level: front-coded records in
// words, the first with lcp 0.
type Block struct {
	words []uint32
	blockCounts
}

// Sublists returns the number of sub-lists in the block.
func (b *Block) Sublists() int { return b.n }

// Cliques returns the number of candidate cliques in the block.
func (b *Block) Cliques() int64 { return b.m }

// Bytes returns what the block occupies and the governor is charged for
// it: its words.
func (b *Block) Bytes() int64 { return 4 * int64(len(b.words)) }

// Load predicts the cost of joining the block on a graph whose bitmaps
// are `words` words long: the pairwise tail joins plus the per-extension
// bitmap AND work.
func (b *Block) Load(words int64) int64 {
	return b.pairs + (b.m-int64(b.n))*words
}

// Words returns the block's record stream.  Read-only.
func (b *Block) Words() []uint32 { return b.words }

// follows reports whether o's words start where b's end in the same
// chunk, so that the two are one stretch of memory.
func (b *Block) follows(o *Block) bool {
	n := len(b.words)
	return cap(b.words) > n && len(o.words) > 0 && &b.words[:n+1][n] == &o.words[0]
}

// Records yields the block's sub-lists in order as views valid until the
// next one is yielded; k is the clique size of the level the block
// belongs to.  A malformed block is a bug and panics.
func (b *Block) Records(k int) iter.Seq[*SubList] {
	return func(yield func(*SubList) bool) {
		var it Iter
		it.Reset(k, b)
		for s := it.Next(); s != nil; s = it.Next() {
			if !yield(s) {
				return
			}
		}
		it.mustEnd()
	}
}

// Cursor is a place where a level may be cut: the run start at word Word
// of block Block.  The words from there on decode by themselves, so the
// rest of a cut level is the level's own words.  The cursor of a level
// run to completion is {len(Sub), 0}.
type Cursor struct{ Block, Word int }

// Level is the complete set of candidate k-clique sub-lists at one step
// of the enumeration: blocks in canonical order, none of them empty.
type Level struct {
	K   int // size of the cliques held
	Sub []Block
}

// Sublists returns N[k]: the number of sub-lists held.
func (l *Level) Sublists() int {
	n := 0
	for i := range l.Sub {
		n += l.Sub[i].n
	}
	return n
}

// Cliques returns M[k]: the total number of candidate cliques held.
func (l *Level) Cliques() int64 {
	var m int64
	for i := range l.Sub {
		m += l.Sub[i].m
	}
	return m
}

// Bytes returns what the level occupies: the sum of its blocks' bytes,
// which is what the governor was charged for them.  Arguments are
// ignored: the blocks carry their counts, and only the frozen benchmark
// module still passes the graph order the paper's formula needed.
func (l *Level) Bytes(...int) int64 {
	var b int64
	for i := range l.Sub {
		b += l.Sub[i].Bytes()
	}
	return b
}

// PaperBytes returns the paper's space formula for the level over a
// graph of n vertices, M[k]*c + N[k]*((k-1)*c + bitmap + sizeof(pointer)):
// what the paper's pointer-per-sub-list store, which keeps each prefix's
// common-neighbor bitmap, would occupy — for the tables that reproduce
// the paper's figures.  A bitmap is ⌈n/64⌉ words, 8 bytes each.
func (l *Level) PaperBytes(n int) int64 {
	bitmap := 8 * int64((n+63)/64)
	return l.Cliques()*vertexBytes + int64(l.Sublists())*(int64(l.K-1)*vertexBytes+bitmap+pointerBytes)
}

// Append adds blocks to the level, in order.  A block that lies in
// memory right behind the level's last one is coalesced with it while
// the two stay within maxWords words, so small neighbours of one
// producer do not each become a unit of dispatch; the record stream is
// unchanged either way.  It reports how many blocks the level grew by.
func (l *Level) Append(maxWords int, blocks ...Block) (grown int) {
	for i := range blocks {
		b := &blocks[i]
		if n := len(l.Sub); n > 0 {
			last := &l.Sub[n-1]
			if len(last.words)+len(b.words) <= maxWords && last.follows(b) {
				last.words = last.words[:len(last.words)+len(b.words)]
				last.n += b.n
				last.m += b.m
				last.pairs += b.pairs
				continue
			}
		}
		l.Sub = append(l.Sub, *b)
		grown++
	}
	return grown
}

// Recut returns the level's records regrouped into blocks of about
// maxWords words at most, each cut where a run starts, and the home of
// every new block (that of the block it was cut from; nil for nil): a
// consumer that wants finer units of dispatch than its producer sealed
// gets them without moving a word.
func (l *Level) Recut(maxWords int, homes []int32) (*Level, []int32) {
	out := &Level{K: l.K}
	var outHomes []int32
	var it Iter
	for bi := range l.Sub {
		src := &l.Sub[bi]
		piece, lo := Block{}, 0
		cut := func(end int) {
			piece.words = src.words[lo:end:end]
			out.Sub = append(out.Sub, piece)
			if homes != nil {
				outHomes = append(outHomes, homes[bi])
			}
			piece, lo = Block{}, end
		}
		it.Reset(l.K, src)
		for at := 0; ; at = it.pos {
			s := it.Next()
			if s == nil {
				break
			}
			if s.LCP == 0 && at-lo >= maxWords {
				cut(at)
			}
			t := int64(len(s.Tails))
			piece.n++
			piece.m += t
			piece.pairs += t * (t - 1) / 2
		}
		it.mustEnd()
		cut(len(src.words))
	}
	return out, outHomes
}

// All yields every sub-list of the level in canonical order, as views
// valid until the next one is yielded.
func (l *Level) All() iter.Seq[*SubList] {
	return func(yield func(*SubList) bool) {
		for bi := range l.Sub {
			for s := range l.Sub[bi].Records(l.K) {
				if !yield(s) {
					return
				}
			}
		}
	}
}

// Iter decodes one block's records in order, allocation-free once its
// prefix buffer has reached the level's depth.
type Iter struct {
	sub   SubList // the view Next hands out
	words []uint32
	pos   int
	i     int // records decoded so far
	k1    int
	err   error
}

// Reset points the iterator at the start of b, a block of a level of
// k-cliques.
func (it *Iter) Reset(k int, b *Block) {
	it.k1 = k - 1
	if cap(it.sub.Prefix) < it.k1 {
		it.sub.Prefix = make([]uint32, it.k1)
	}
	it.sub.Prefix = it.sub.Prefix[:it.k1]
	it.words = b.words
	it.pos, it.i, it.err = 0, 0, nil
}

// Next returns the next record as a view valid until the following call,
// or nil at the end of the block — or at a malformed record, which Err
// then reports.
//
//repro:hotpath
func (it *Iter) Next() *SubList {
	w, p := it.words, it.pos
	if p >= len(w) || it.err != nil {
		return nil
	}
	h := w[p]
	p++
	if h>>24 != 0 {
		return it.fail("reserved header bits set")
	}
	l, t := h&0xff, h>>8
	if l == lcpEscape {
		if p >= len(w) {
			return it.fail("truncated header")
		}
		l = w[p]
		p++
	}
	if t == tailEscape {
		if p >= len(w) {
			return it.fail("truncated header")
		}
		t = w[p]
		p++
	}
	if uint64(l) > uint64(it.k1) || (it.i == 0 && l != 0) {
		return it.fail("shared prefix out of range")
	}
	suffix := it.k1 - int(l)
	if uint64(suffix)+uint64(t) > uint64(len(w)-p) {
		return it.fail("truncated record")
	}
	s := &it.sub
	for i, x := range w[p : p+suffix] { // a vertex or two: a loop, not copy's call
		s.Prefix[int(l)+i] = x
	}
	p += suffix
	end := p + int(t)
	s.Tails = w[p:end:end]
	s.LCP = int(l)
	it.pos = end
	it.i++
	return s
}

// RecordAt returns the shape of the record at words[p] of a well-formed
// block of a level of k-cliques: the words it takes, the prefix vertices
// it takes over from the record before it (0 where a run starts) and its
// tail count.
//
//repro:hotpath
func RecordAt(words []uint32, p, k int) (n, lcp, tails int) {
	h := words[p]
	lcp, tails, n = int(h&0xff), int(h>>8), 1
	if lcp == lcpEscape {
		lcp = int(words[p+n])
		n++
	}
	if tails == tailEscape {
		tails = int(words[p+n])
		n++
	}
	return n + k - 1 - lcp + tails, lcp, tails
}

// fail latches a decode error; out of line so Next boxes nothing.
func (it *Iter) fail(what string) *SubList {
	it.err = fmt.Errorf("core: malformed level block: %s (record %d, word %d)", what, it.i, it.pos)
	return nil
}

// Err reports why Next stopped before the end of the block, if it did.
func (it *Iter) Err() error { return it.err }

// mustEnd panics unless the block decoded to its end: blocks are written
// by blockSink only, so anything else is a bug in it.
func (it *Iter) mustEnd() {
	if it.err != nil {
		panic(it.err)
	}
}

// Verifier checks the blocks of a level that arrive from outside the
// process — the frames of a spilled shard — one after another in level
// order, and hands them back as a Block with its counts, so that no
// caller packs or walks them again before the join.  Beside what Iter
// checks, every record must be strictly increasing (its prefix, then its
// tails above it), every sub-list's prefix strictly above the one before
// it — across blocks too — every vertex below n, and no sub-list without
// tails: whatever passes is a level the kernel could have written, up to
// the N(p0) check its admission makes (Admitter.Admit).
type Verifier struct {
	it      Iter
	frame   Block
	prev    []uint32 // the prefix of the sub-list checked last
	n       int
	started bool        // a sub-list has been checked
	c       blockCounts // of the block being checked

	// Admit, when set, admits every record once it has passed: the one
	// walk of a frame serves both its check and decode-ahead's admission.
	// Its error is Block's.
	Admit *Admissions
}

// Reset readies the verifier for the first block of a level of
// k-cliques over the vertices [0, n).
func (v *Verifier) Reset(k, n int) {
	if cap(v.prev) < k-1 {
		v.prev = make([]uint32, k-1)
	}
	v.prev, v.n, v.started = v.prev[:k-1], n, false
}

// Block checks words[at:] as the level's next stretch, which must decode
// by itself, and returns words — the stretches checked since the last
// call at 0 — as one block.  The block aliases words.
//
//repro:hotpath
func (v *Verifier) Block(words []uint32, at int) (b Block, err error) {
	c := v.c
	if at == 0 {
		var none blockCounts
		c = none
	}
	v.frame.words = words[at:]
	it, prev := &v.it, v.prev
	k1 := len(prev)
	it.Reset(k1+1, &v.frame)
	for s := it.Next(); s != nil; s = it.Next() {
		// The first prefix vertex that differs from the sub-list before
		// must grow: canonical order, and no prefix twice.
		p, above := s.Prefix, !v.started
		for j := s.LCP; j < k1; j++ {
			x := p[j]
			if j > 0 && x <= p[j-1] {
				return b, errBlock("prefix not strictly increasing", it)
			}
			if !above && x < prev[j] {
				return b, errBlock("sub-lists out of order", it)
			}
			above = above || x > prev[j]
			prev[j] = x
		}
		if !above {
			return b, errBlock("sub-lists out of order", it)
		}
		if len(s.Tails) == 0 {
			return b, errBlock("sub-list without tails", it)
		}
		last := p[k1-1]
		for _, x := range s.Tails {
			if x <= last {
				return b, errBlock("tails not strictly increasing", it)
			}
			last = x
		}
		if uint64(last) >= uint64(v.n) {
			return b, errBlock("vertex out of the universe", it)
		}
		v.started = true
		t := int64(len(s.Tails))
		c.n++
		c.m += t
		c.pairs += t * (t - 1) / 2
		if v.Admit != nil {
			if err := v.Admit.Admit(s); err != nil {
				return b, err
			}
		}
	}
	if err := it.Err(); err != nil {
		return b, err
	}
	v.c = c
	b.words, b.blockCounts = words, c
	return b, nil
}

// errBlock reports what is wrong with the record it read last; out of
// line, so Block boxes nothing.
func errBlock(what string, it *Iter) error {
	return fmt.Errorf("core: malformed level block: %s (record %d, word %d)", what, it.i-1, it.pos)
}

// AppendRecord appends to dst the front-coded record of the sub-list
// (prefix, tails), whose first lcp vertices are those of the record
// before it: a level written a prefix run at a time from outside a join.
func AppendRecord(dst, prefix []uint32, lcp int, tails []uint32) []uint32 {
	p := len(dst)
	dst = slices.Grow(dst, 3)[:p+3]
	dst = append(dst[:putHeader(dst, p, lcp, len(tails))], prefix[lcp:]...)
	return append(dst, tails...)
}

// blockSink is the one sink of the join kernel, and the seeders': sub-lists
// are appended as front-coded records into arena chunks and leave as
// sealed blocks, each charged to the governor once, when it is sealed,
// for what it occupies.  Chunks are recycled two generations after they
// were filled (see arena.go); the block lists lag the same way.
type blockSink struct {
	gov    *membudget.Governor
	chunks arena

	buf []uint32 // the active chunk
	lo  int      // where the open block starts in buf
	run int      // where the open run — the last record with lcp 0 — starts
	pos int      // where the next record goes

	open, atRun blockCounts // of the open block: now, and when the open run started

	// carry is how much of its prefix the next record may take over from
	// the record appended last: the least stored lcp among the input
	// sub-lists consumed since then.  Sorted inputs make that the exact
	// shared length; an input run start (lcp 0) carries over as an output
	// run start, which is what keeps the stream independent of who joined
	// which block.
	carry int

	out    []Block
	retOut [2][]Block
	prev   []uint32 // prefix of the record appended last (appendRecord only)
}

func newBlockSink(gov *membudget.Governor) blockSink {
	return blockSink{
		gov:    gov,
		chunks: arena{minLen: minChunkWords, maxLen: maxChunkWords},
	}
}

// reset starts a new level: one arena generation on, nothing open.
func (s *blockSink) reset() {
	s.chunks.flip()
	old := s.retOut[1]
	s.retOut[1] = s.retOut[0]
	s.retOut[0] = s.out
	s.out = old[:0]
	s.buf, s.lo, s.run, s.pos = nil, 0, 0, 0
	s.open, s.atRun = blockCounts{}, blockCounts{}
	s.carry = 0
}

// append writes the sub-list (prefix+v, tails) behind the one appended
// last.
//
//repro:hotpath
func (s *blockSink) append(prefix []uint32, v uint32, tails []uint32) {
	l := s.carry
	s.carry = len(prefix) // what the next sub-list of the same input shares
	if s.pos-s.run >= RunWords {
		l = 0
	}
	if l == 0 {
		s.run, s.atRun = s.pos, s.open
	}
	need := 2 + len(prefix) - l + len(tails)
	if l >= lcpEscape {
		need++
	}
	if len(tails) >= tailEscape {
		need++
	}
	if s.pos+need > len(s.buf) {
		s.grow(need)
	}
	buf, p := s.buf, s.pos
	p = putHeader(buf, p, l, len(tails))
	// A record spells a vertex or two of its prefix and a few tails:
	// loops, not copy's call.
	for _, x := range prefix[l:] {
		buf[p] = x
		p++
	}
	buf[p] = v
	p++
	for _, x := range tails {
		buf[p] = x
		p++
	}
	s.pos = p
	s.count(len(tails))
}

// appendRecord is append for the seeders, whose sub-lists arrive with
// whole prefixes from outside a join: the shared length is found by
// comparison with the record appended last.
func (s *blockSink) appendRecord(prefix, tails []uint32) {
	l := 0
	if len(s.prev) == len(prefix) {
		// The last vertex is always spelled: append takes it by itself.
		for l < len(prefix)-1 && prefix[l] == s.prev[l] {
			l++
		}
	}
	s.prev = append(s.prev[:0], prefix...)
	s.carry = l
	s.append(prefix[:len(prefix)-1], prefix[len(prefix)-1], tails)
}

// putHeader writes a record's header at buf[p:] and returns the position
// behind it.
//
//repro:hotpath
func putHeader(buf []uint32, p, lcp, tails int) int {
	h, at := uint32(0), p
	p++
	if lcp >= lcpEscape {
		h = lcpEscape
		buf[p] = uint32(lcp)
		p++
	} else {
		h = uint32(lcp)
	}
	if tails >= tailEscape {
		h |= tailEscape << 8
		buf[p] = uint32(tails)
		p++
	} else {
		h |= uint32(tails) << 8
	}
	buf[at] = h
	return p
}

// count books one appended sub-list of t tails on the open block.
//
//repro:hotpath
func (s *blockSink) count(t int) {
	s.open.n++
	s.open.m += int64(t)
	s.open.pairs += int64(t) * int64(t-1) / 2
}

// grow makes room for need more words: the whole runs of the open block
// are sealed where they are, and the open run moves to the front of a
// fresh chunk, so a block is always one stretch of memory and is cut at
// a run start only.
func (s *blockSink) grow(need int) {
	s.seal(s.run, s.atRun)
	moved := s.buf[s.run:s.pos]
	s.buf = s.chunks.chunk(len(moved) + need)
	s.pos = copy(s.buf, moved)
	s.lo, s.run = 0, 0
}

// seal closes buf[lo:end], whose records are the first c of the open
// block, as a block of the level and charges it.
//
//nolint:budgetpair ownership of the charge transfers with the block: the level loop releases it when the level is consumed or aborted
func (s *blockSink) seal(end int, c blockCounts) {
	if end == s.lo {
		return
	}
	b := Block{words: s.buf[s.lo:end], blockCounts: c}
	s.lo = end
	s.open.sub(c)
	s.atRun = blockCounts{}
	s.out = append(s.out, b)
	s.gov.Charge(b.Bytes())
}

// finish seals what is open and returns the blocks sealed since
// out[from:] — all of a level for from 0, one input block's output for a
// pool worker.  The next sub-list appended must start a run.
func (s *blockSink) finish(from int) []Block {
	s.seal(s.pos, s.open)
	s.run, s.carry, s.prev = s.pos, 0, s.prev[:0]
	return s.out[from:len(s.out):len(s.out)]
}

// abandon forgets everything appended since out[from:] was the end of
// the list: sealed blocks are released.  The words stay where they are
// until their chunk is recycled.
func (s *blockSink) abandon(from int) {
	DiscardBlocks(s.out[from:], s.gov)
	s.out = s.out[:from]
	s.lo, s.run, s.carry = s.pos, s.pos, 0
	s.open, s.atRun = blockCounts{}, blockCounts{}
}

// BlockHeaderBytes is what one entry of a level's block list occupies
// beside the block's words — what a holder of level lists accounts for
// them.
const BlockHeaderBytes = int64(unsafe.Sizeof(Block{}))

// DiscardBlocks gives up blocks that will never be part of a level — the
// output of a join beyond a stopped level's frontier: their charge is
// released.
func DiscardBlocks(blocks []Block, gov *membudget.Governor) {
	for i := range blocks {
		gov.Release(blocks[i].Bytes())
	}
}
