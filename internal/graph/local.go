package graph

import (
	"slices"

	"repro/internal/membudget"
)

// Local is G[N(v)], the subgraph induced by one vertex's neighbourhood,
// switched from centre to centre and built a row at a time.  A member of
// N(v) is its rank in the sorted N(v), a row ⌈deg(v)/64⌉ words instead
// of ⌈n/64⌉ — on the paper's graphs one word.  The map is monotone, so a
// search that walks local ids in order walks the vertices in canonical
// order.  Both of the enumerator's searches run here (Eppstein, Löffler
// & Strash's per-vertex subproblems): the join inside N(p0), p0 a
// prefix's first vertex, and the k-clique seed inside N(v) below its top
// level.
//
// A row is built only for a vertex the search touches, the first time it
// does, so the rows take ⌈deg(v)/64⌉ words for each of at most deg(v)
// touched vertices: below deg(v)²/8 bytes, and far below it for a hub
// late in the order, whose search touches few of its neighbours — or,
// Bounded, within the rank table's 4n.  Every byte Local holds is counted
// by Bytes; what it grows by inside a centre is charged to the governor
// Enter was given.
type Local struct {
	V    int      // the centre; -1 before the first Enter
	Nbr  []uint32 // N(v), sorted: local -> global
	W    int      // words of a row: ⌈len(Nbr)/64⌉
	Rows []uint64 // the built rows, W words each, in the order they were built
	Slot []int32  // built local l's row is Rows[Slot[l]*W:][:W]

	scratch []uint64 // the caller's working sets (Scratch)

	// Bounded keeps the built rows within the rank table's 4n bytes: a
	// build past them first forgets every row of the centre.  Only a
	// caller that holds no row across a call that may build one can set
	// it — the seed, which ANDs a row into its sets as it gets it, and not
	// the join, which reads a sub-list's tail rows side by side.
	Bounded bool

	g     Interface
	dense *Graph // g when dense: a row is built by probing N(v), not by walking n bits
	gov   *membudget.Governor

	// rank maps global -> local, one entry per vertex: l >= 0 for a
	// vertex of N(v) whose row is built, -(l+2) for one whose row is not
	// yet, -1 outside N(v) — one load tells the caller all three.
	rank  []int32
	built int
	fill  []uint64 // the row mark writes into

	// The ForEach visitors, bound once: a method value made per row would
	// be an allocation per row.
	mark, admit func(int) bool
}

// NewLocal returns g's local universe, entered nowhere yet.
func NewLocal(g Interface) *Local {
	u := &Local{V: -1, g: g, rank: slices.Repeat([]int32{-1}, g.N())}
	u.dense, _ = g.(*Graph)
	u.mark, u.admit = u.markVertex, u.admitVertex
	return u
}

// Bytes is the universe's resident footprint: the n-entry rank table,
// N(v) with its row slots, the built rows and the caller's scratch.
func (u *Local) Bytes() int64 {
	return 4*int64(cap(u.rank)+cap(u.Nbr)+cap(u.Slot)) + 8*int64(cap(u.Rows)+cap(u.scratch))
}

// Enter makes v's neighbourhood the universe, with no row built; gov is
// charged what the universe grows by until the next Enter.  The previous
// centre's ranks are cleared through its list, so a switch costs the two
// degrees, not n.
func (u *Local) Enter(v int, gov *membudget.Governor) {
	for _, x := range u.Nbr {
		u.rank[x] = -1
	}
	u.gov = gov
	u.grow(u.g.Degree(v), 0, 0)
	u.V, u.Nbr, u.built = v, u.Nbr[:0], 0
	u.g.Row(v).ForEach(u.admit)
	u.W = (len(u.Nbr) + 63) / 64
}

// Scratch returns n words of working sets over the universe, kept from
// call to call while it fits: a search's CANDIDATES and NOT.
func (u *Local) Scratch(n int) []uint64 {
	if cap(u.scratch) < n {
		u.grow(0, 0, n)
	}
	return u.scratch[:n]
}

// admitVertex appends x to N(v) and ranks it, its row not yet built.
//
//repro:hotpath
func (u *Local) admitVertex(x int) bool {
	u.rank[x] = -int32(len(u.Nbr)) - 2
	u.Nbr = append(u.Nbr, uint32(x))
	return true
}

// markVertex sets x's bit in the row being built, if x lies in N(v).
//
//repro:hotpath
func (u *Local) markVertex(x int) bool {
	if r := u.rank[x]; r != -1 {
		r = max(r, -r-2) // the local id, whether x's row is built or not
		u.fill[r>>6] |= 1 << (r & 63)
	}
	return true
}

// ID maps x into the universe: its local id, or -1 outside N(v).  The
// first call for a member builds its row; after that, one load.
//
//repro:hotpath
func (u *Local) ID(x uint32) int32 {
	if r := u.rank[x]; r >= -1 {
		return r
	}
	return u.build(x)
}

// Built returns how many rows the centre has built: the slots taken.
func (u *Local) Built() int { return u.built }

// Row returns the row of local vertex l, built on first touch.
//
//repro:hotpath
func (u *Local) Row(l int) []uint64 {
	u.ID(u.Nbr[l])
	return u.Rows[int(u.Slot[l])*u.W:][:u.W]
}

// build gives x's row the next slot and builds it there.  A dense row is
// n bits, so it is probed at the members of N(v) instead of walked.
func (u *Local) build(x uint32) int32 {
	l, s := -u.rank[x]-2, u.built
	if (s+1)*u.W > len(u.Rows) {
		rows := len(u.Nbr)
		if u.Bounded {
			rows = min(rows, max(len(u.rank)/2/u.W, 1)) // 4n bytes: the rank table's
		}
		if s < rows {
			u.grow(0, min(2*s+1, rows), 0) // doubling: the copies stay linear in the rows
		} else {
			u.forget()
			s = 0
		}
	}
	u.fill = u.Rows[s*u.W : (s+1)*u.W]
	clear(u.fill)
	if u.dense != nil {
		row := u.dense.adj[x]
		for i, y := range u.Nbr {
			if row.WordAt(int(y>>6))&(1<<(y&63)) != 0 {
				u.fill[i>>6] |= 1 << (i & 63)
			}
		}
	} else {
		u.g.Row(int(x)).ForEach(u.mark)
	}
	u.Slot[l], u.rank[x], u.built = int32(s), l, s+1
	return l
}

// forget unbuilds every row of the centre, so the next build takes the
// first slot.
func (u *Local) forget() {
	for l, x := range u.Nbr {
		u.rank[x] = min(u.rank[x], -int32(l)-2)
	}
	u.built = 0
}

// grow sizes N(v) and its slots for degree d, the rows for nrows and the
// scratch for words, charging what it adds.  Growth is rare and out of
// line, so the callers' fast paths stay allocation-free.
//
//nolint:budgetpair the universe is its owner's scratch: the owner releases it with Bytes
func (u *Local) grow(d, nrows, words int) {
	before := u.Bytes()
	u.Nbr, u.Slot, u.Rows = Fit(u.Nbr, d), Fit(u.Slot, d), Fit(u.Rows, nrows*u.W)
	u.scratch = Fit(u.scratch, words)
	u.gov.Charge(u.Bytes() - before)
}

// Fit returns s with room for n elements, its contents kept: a search's
// scratch grows through it and stays valid across the growth.
func Fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	grown := make([]T, n)
	copy(grown, s[:cap(s)])
	return grown
}
