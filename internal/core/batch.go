package core

import (
	"repro/internal/graph"
	"repro/internal/membudget"
)

// Admissions carries a block of a spilled level from the goroutine that
// reads and admits it to the one that joins it — the out-of-core
// pipeline's unit from decode-ahead to the join stage (DESIGN.md §5.3).
// Admission rewrites each record's tails in place as local ids
// (Admitter.Map), so the block carries its records admitted, and beside
// it go what the join reads that is not in the block: CN(prefix), W
// words a record, and the rows admission built, W words each, each once
// for its group, which the join copies into its own copy of the group
// (Admitted.own) before it joins a record that reads them.  A stream
// has, for every record that starts a run (lcp 0: the block's first, and
// every new p0),
//
//	enter   0 where the run goes on in the group before, or deg(p0)+1
//	        and N(p0) after it where it enters a group
//	count   the rows the run's records built, and their local ids
//
// One stage holds the admissions at a time: decode-ahead admits a
// block's records into them as its verifier passes them (Admit) and
// binds the block (Bind), and the join reads both in step (Next).  The
// join's copy of a group holds the rows of the records decode-ahead
// admitted since the group's entry, in order, so a consumer starts every
// run with its Admitter's Leave.
type Admissions struct {
	blk  Block
	k1   int      // the records' prefix length
	side []uint32 // the stream
	cns  []uint64 // CN(prefix) of every record
	rows []uint64 // the rows built, in the order they were

	// Admit's state: the admitter, the governor it grows on and where the
	// run's count is.
	adm  *Admitter
	gov  *membudget.Governor
	head int

	// Next's cursors in the block, the stream, the CN rows and the rows,
	// and the prefix it spells the records' into.
	pos, sp, pc, rp int
	prefix          []uint32
}

// NewAdmissions returns empty admissions with room for those of a block
// of about words words of records of a few tails each; they grow past it
// where the records need more.
func NewAdmissions(words int) *Admissions {
	return &Admissions{
		side: make([]uint32, 0, words/16),
		cns:  make([]uint64, 0, words/4),
		rows: make([]uint64, 0, words/64),
	}
}

// Bytes returns what the block and its admissions occupy, as their holder
// charges them.
func (b *Admissions) Bytes() int64 {
	return b.blk.Bytes() + b.SideBytes()
}

// SideBytes returns what the admissions take beside the block.
func (b *Admissions) SideBytes() int64 {
	return 4*int64(len(b.side)) + 8*int64(len(b.cns)+len(b.rows))
}

// Reset empties the admissions and lets the block go, keeping the
// storage; the records Admit admits next go into adm, which grows on
// gov.
func (b *Admissions) Reset(adm *Admitter, gov *membudget.Governor) {
	b.blk, b.adm, b.gov = Block{}, adm, gov
	b.side, b.cns, b.rows = b.side[:0], b.cns[:0], b.rows[:0]
	b.pos, b.sp, b.pc, b.rp = 0, 0, 0, 0
}

// Admit admits s, a record a Verifier has passed — the view its walk
// decoded, whose Tails are the block's own words — rewriting its tails
// as local ids.  A record outside N(p0) is Map's error.
//
//repro:hotpath
func (b *Admissions) Admit(s *SubList) error {
	u := b.adm
	if s.LCP == 0 {
		b.run(s.Prefix[0])
	}
	built := u.Built()
	cn, err := u.Map(s, s.Tails, b.gov)
	if err != nil {
		return err
	}
	if u.W == 1 {
		b.cns = append(b.cns, cn[0])
	} else {
		b.cns = append(b.cns, cn...)
	}
	if u.Built() > built {
		b.ship(s, built)
	}
	return nil
}

// run starts the stream of a run whose prefix starts at p0, entering
// p0's group where the admitter is in another.
func (b *Admissions) run(p0 uint32) {
	u := b.adm
	if int(p0) == u.V {
		b.side = append(b.side, 0)
	} else {
		u.Enter(int(p0), b.gov)
		b.side = append(b.side, uint32(len(u.Nbr)+1))
		b.side = append(b.side, u.Nbr...)
	}
	b.head = len(b.side)
	b.side = append(b.side, 0)
}

// ship adds to the run the rows the universe built for s, admitted:
// those in slots from on, a prefix vertex's too, which may be a later
// record's tail.  Out of line: a group builds each row once.
func (b *Admissions) ship(s *SubList, from int) {
	u := b.adm
	for _, x := range s.Prefix[1:] {
		b.shipRow(uint32(u.ID(x)), from)
	}
	for _, l := range s.Tails {
		b.shipRow(l, from)
	}
}

// shipRow adds local l's row to the run if the universe built it in a
// slot from on.
func (b *Admissions) shipRow(l uint32, from int) {
	u := b.adm
	if s := int(u.Slot[l]); s >= from {
		b.side = append(b.side, l)
		b.side[b.head]++
		b.rows = append(b.rows, u.Rows[s*u.W:(s+1)*u.W]...)
	}
}

// Bind ties the admissions to blk, the block of k-cliques whose records
// were admitted, in order: the block decode-ahead read them from.
func (b *Admissions) Bind(blk Block, k int) { b.blk, b.k1 = blk, k-1 }

// Next points a at the next record of the block and reports true, or
// reports false at its end: a view of the block and the admissions,
// valid until the next call, whose group is a's own copy, grown on gov.
// The block is one that passed a Verifier and was admitted, so its
// records are read without a check.
//
//repro:hotpath
func (b *Admissions) Next(a *Admitted, gov *membudget.Governor) bool {
	w, p := b.blk.words, b.pos
	if p >= len(w) {
		return false
	}
	if p == 0 {
		b.first(a)
	}
	n, lcp, t := RecordAt(w, p, b.k1+1)
	end := p + n
	pre := a.Prefix
	for i, v := range w[end-t-(len(pre)-lcp) : end-t] {
		pre[lcp+i] = v
	}
	if lcp == 0 {
		b.group(a, gov)
	}
	a.LCP, a.Tails = lcp, w[end-t:end:end]
	a.CN = b.cns[b.pc : b.pc+a.W]
	b.pos, b.pc = end, b.pc+a.W
	return true
}

// group reads the stream of the run that starts at a's record: the
// group's entry where it has one and the rows the run's records built.
func (b *Admissions) group(a *Admitted, gov *membudget.Governor) {
	s, sp := b.side, b.sp+1
	if d := int(s[sp-1]) - 1; d >= 0 {
		a.own.enter(s[sp:sp+d], gov)
		sp += d
	}
	n := int(s[sp])
	sp++
	a.own.add(s[sp:sp+n], b.rows[b.rp:], gov)
	b.sp, b.rp = sp+n, b.rp+n*a.own.w
	a.W, a.Nbr, a.Rows, a.Slot, a.CV = a.own.w, a.own.nbr, a.own.rows, a.own.slot, a.own.cv
}

// first readies a for the block's first record, which spells its whole
// prefix: the prefix Next spells the records' into.  Out of line, so
// Next stays allocation-free.
func (b *Admissions) first(a *Admitted) {
	if cap(b.prefix) < b.k1 {
		b.prefix = make([]uint32, b.k1)
	}
	a.Prefix = b.prefix[:b.k1]
}

// group is the join stage's copy of a group decode-ahead admits into:
// N(p0) and the rows decode-ahead built in it so far, each in a slot of
// its own.
type group struct {
	w    int
	nbr  []uint32
	slot []int32
	rows []uint64
	cv   []uint64 // the W words Join writes CN(prefix+v) into
}

// Bytes is what the copy occupies.
func (g *group) Bytes() int64 {
	return 4*int64(cap(g.nbr)+cap(g.slot)) + 8*int64(cap(g.rows)+cap(g.cv))
}

// enter makes nbr the group, no row in it yet.
func (g *group) enter(nbr []uint32, gov *membudget.Governor) {
	g.w = (len(nbr) + 63) / 64
	if cap(g.nbr) < len(nbr) || cap(g.slot) < len(nbr) || cap(g.cv) < g.w {
		g.grow(len(nbr), 0, gov)
	}
	g.nbr, g.slot = append(g.nbr[:0], nbr...), g.slot[:len(nbr)]
	g.rows, g.cv = g.rows[:0], g.cv[:g.w]
}

// add appends the rows of the local ids ls, W words each in rows.
func (g *group) add(ls []uint32, rows []uint64, gov *membudget.Governor) {
	n := len(g.rows) + len(ls)*g.w
	if cap(g.rows) < n {
		g.grow(0, max(n, 2*cap(g.rows)), gov) // doubling: the copies stay linear in the rows
	}
	for i, l := range ls {
		g.slot[l] = int32(len(g.rows) / g.w)
		g.rows = append(g.rows, rows[i*g.w:(i+1)*g.w]...)
	}
}

// grow makes room for a group of degree d and words row words, charging
// what it adds to gov.
func (g *group) grow(d, words int, gov *membudget.Governor) {
	charged(gov, g.Bytes, func() {
		g.nbr, g.slot = graph.Fit(g.nbr, d)[:len(g.nbr)], graph.Fit(g.slot, d)[:len(g.slot)]
		g.rows, g.cv = graph.Fit(g.rows, words)[:len(g.rows)], graph.Fit(g.cv, g.w)
	})
}
