package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/membudget"
)

// The join kernel runs in two halves, Admit and Join (DESIGN.md §3.1).
// Admit maps a record into its local universe: every vertex a sub-list
// can reach lies in N(p0), p0 its prefix's first vertex — its tails,
// every clique that extends it and every common neighbour.  Sub-lists
// that share p0 are contiguous in canonical order, so the join works on
// the induced subgraph G[N(p0)] (graph.Local), switched once per p0
// group, and the canonical order, the stream and every count stay those
// of the global join.  Beside the universe the admitter keeps the prefix
// memo, from which it rebuilds each record's CN(prefix).  Join (step.go)
// reads only what Admit hands it, the Admitted record: in memory both
// halves run on one goroutine, one record after the other, and the
// record is a view of the admitter's scratch; out of core decode-ahead
// admits each record in place, in the block it was read into, and what
// the join needs beside the block — CN(prefix), and the rows admission
// built, each once for its group — goes into the block's Admissions
// (batch.go).

// Admitter is the admission half of the join kernel: it holds a graph's
// local universe and the prefix memo, and maps records into them one
// after another, trusting the memo as far as each record's stored lcp
// (Map).  It is not safe for concurrent use.
type Admitter struct {
	*graph.Local

	// The prefix memo, in local words: memo[i*w:(i+1)*w] is the
	// common-neighbour row of the first i+1 vertices of the prefix mapped
	// last, valid for its first memoRows rows, so a record whose stored
	// lcp is l reuses the rows below l.  Row 0 is all of N(p0).
	memo     []uint64
	memoRows int

	lt  []uint32 // Admit's tails as local ids
	cv  []uint64 // the W words Join writes CN(prefix+v) into
	rec Admitted // Admit's view of its record
}

// NewAdmitter returns an admitter over g's universe, entered nowhere yet.
func NewAdmitter(g graph.Interface) *Admitter {
	return &Admitter{Local: graph.NewLocal(g)}
}

// ScratchBytes is the admitter's resident footprint right now: the local
// universe — its rank table, rows and slots — the memo, the tails' local
// ids and the join's CN(prefix+v).  Whoever adopts the admitter charges it and releases it
// (read again: it may have grown) when done; in between the admitter
// charges what it adds to the governor it is given.
func (a *Admitter) ScratchBytes() int64 {
	return a.Local.Bytes() + 4*int64(cap(a.lt)) + 8*int64(cap(a.memo)+cap(a.cv))
}

// Leave forgets the group the admitter is in, so the next record enters
// its own afresh: a consumer that starts over — a new run of a join whose
// last may have stopped midway — sees every group it joins entered.  The
// memo needs no reset: the record a consumer starts with starts a run
// (lcp 0), which rebuilds from row 0.
func (a *Admitter) Leave() { a.V = -1 }

// Admitted is one record admitted into its universe: everything Join
// reads.  Every set is a row over N(p0), W words a row.
type Admitted struct {
	Prefix []uint32 // in global ids
	Tails  []uint32 // in local ids
	LCP    int      // the record's stored lcp: the output's front-coding carry, and the memo rows its rebuild reused
	CN     []uint64 // CN(prefix)
	CV     []uint64 // W words of scratch Join writes: CN(prefix+v) of the tail it joins

	W    int
	Nbr  []uint32 // N(p0), local -> global
	Rows []uint64 // local l's row is Rows[Slot[l]*W:][:W], for l a tail
	Slot []int32

	// The join stage's copy of the group, out of core (Admissions.Next).
	own group
}

// Bytes is what a's own copy of its group occupies: the join stage's
// scratch, out of core.
func (a *Admitted) Bytes() int64 { return a.own.Bytes() }

// Admit maps s into the admitter's scratch and returns the admitted
// record, valid until the next Admit: the in-memory admission.  An error
// is Map's.
//
//repro:hotpath
func (a *Admitter) Admit(s *SubList, gov *membudget.Governor) (*Admitted, error) {
	p, r := s.Prefix, &a.rec
	if int(p[0]) != a.V {
		a.Enter(int(p[0]), gov)
		if cap(a.lt) < len(a.Nbr) || cap(a.cv) < a.W {
			a.grow(len(a.Nbr), 0, gov)
		}
	}
	if len(s.Tails) > len(a.Nbr) {
		return nil, outside(s) // more tails than N(p0) has distinct members
	}
	// lt holds deg(p0) entries since the group began, and building a row
	// never moves it.
	lt := a.lt[:len(s.Tails)]
	cn, err := a.Map(s, lt, gov)
	if err != nil {
		return nil, err
	}
	r.Prefix, r.Tails, r.LCP, r.CN = p, lt, s.LCP, cn
	r.W, r.Nbr, r.Rows, r.Slot, r.CV = a.W, a.Nbr, a.Rows, a.Slot, a.cv[:a.W] // building a row may have moved the rows
	return r, nil
}

// grow sizes the admitter's scratch for a group of degree d and a prefix
// memo of depth rows, charging what it adds to gov.  Growth is rare and
// out of line, so the kernel's fast path stays allocation-free.
func (a *Admitter) grow(d, depth int, gov *membudget.Governor) {
	charged(gov, a.ScratchBytes, func() {
		a.lt, a.cv = graph.Fit(a.lt, d), graph.Fit(a.cv, a.W)
		a.memo = graph.Fit(a.memo, depth*a.W)
	})
}

// charged runs grow, which grows a kernel's scratch, and charges gov
// what bytes, its footprint, grew by.
//
//nolint:budgetpair the scratch is its owner's: whoever adopted the owner releases the footprint whole
func charged(gov *membudget.Governor, bytes func() int64, grow func()) {
	before := bytes()
	grow()
	gov.Charge(bytes() - before)
}

// Map maps s, whose group the admitter is in, into the universe: it
// rebuilds the common-neighbour row of its prefix over N(p0) from the
// memo and returns it, a view of the memo, and writes the tails' local
// ids into tails — which may be s.Tails itself, the record's own words —
// building the rows of the vertices the group touches first.  A record
// with a prefix vertex or a tail outside N(p0), which only input from
// outside the process can hold, is an error.  gov (nil allowed) is
// charged what the memo grows by, and the universe charges what it grows
// by to the governor its group was entered with.
//
// The memo is trusted exactly as far as the record's stored lcp: the
// rows below it are those of the record before, which its consumer
// mapped just before it.  A record that starts a run (lcp 0) rebuilds
// from row 0 whatever was mapped before, so the rebuild — the
// len(p) − max(lcp, 1) row ANDs Join books — is a function of the
// record alone.
//
//repro:hotpath
func (a *Admitter) Map(s *SubList, tails []uint32, gov *membudget.Governor) ([]uint64, error) {
	p, u, w := s.Prefix, a.Local, a.W
	if cap(a.memo) < len(p)*w {
		a.grow(0, len(p), gov)
	}
	valid := min(s.LCP, a.memoRows)
	a.memoRows = 0 // until the whole prefix is in
	memo := a.memo[:len(p)*w]
	if valid == 0 {
		for x := range memo[:w] {
			memo[x] = ^uint64(0) // row 0: all of N(p0)
		}
	}
	for i := max(valid, 1); i < len(p); i++ {
		lv := u.ID(p[i])
		if lv < 0 {
			return nil, outside(s)
		}
		if w == 1 { // every group of the paper's graphs
			memo[i] = memo[i-1] & u.Rows[u.Slot[lv]]
			continue
		}
		row, prev, nv := memo[i*w:(i+1)*w], memo[(i-1)*w:i*w], u.Rows[int(u.Slot[lv])*w:][:w]
		for x := range row {
			row[x] = prev[x] & nv[x]
		}
	}
	a.memoRows = len(p)
	for k, x := range s.Tails {
		lv := u.ID(x)
		if lv < 0 {
			return nil, outside(s)
		}
		tails[k] = uint32(lv)
	}
	return memo[(len(p)-1)*w:], nil
}

// outside is the error for a record that leaves its prefix's universe;
// out of line so the kernel boxes nothing.
func outside(s *SubList) error {
	return fmt.Errorf("core: record with prefix %v and %d tails reaches outside N(%d)", s.Prefix, len(s.Tails), s.Prefix[0])
}
