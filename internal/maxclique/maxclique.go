// Package maxclique computes maximum cliques exactly with a Tomita-style
// branch-and-bound (greedy-coloring upper bounds over bitset candidate
// sets).  The paper's pipeline computes the maximum clique size first and
// uses it as the upper bound of the enumeration range; on sparse graphs
// it reduces to vertex cover on the complement (package vc), but the
// complement of the dense 12,422-vertex microarray graph is far too large
// for that route, so a dedicated branch-and-bound is the practical tool —
// both are provided and cross-validated.
//
// The search runs one neighbourhood at a time, the way Rossi et al.'s
// PMC does (SIAM J. Sci. Comput. 2015), on any representation.  One
// degeneracy peel orders the vertices; walking them from the dense end,
// the search enters N(v) on a graph.Local (Eppstein, Löffler & Strash's
// per-vertex subproblem, the one the seed and the join run on) and looks
// among v's later neighbours for a clique larger than the best so far.
// Its sets are ⌈deg(v)/64⌉ words, its rows are built on first touch and
// kept within the rank table's 4n bytes (Bounded), and no row n bits wide
// is ever built.  The walk ends at the first vertex whose core number
// leaves no room for a larger clique.
//
// The answer is defined: the lexicographically smallest maximum clique.
// A second pass, knowing ω, takes v in ascending order and searches N(v)
// in ascending order, stopping at the first clique of ω vertices; local
// ids are monotone, so local order is canonical order.
package maxclique

import (
	"context"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/membudget"
)

// Stats reports search effort.
type Stats struct {
	Nodes  int64 // branch-and-bound nodes expanded
	Cutoff int64 // nodes pruned by the coloring bound
}

// pollNodes is how many search nodes may pass between two cancellation
// polls: a node is one greedy coloring of a neighbourhood's candidates,
// so the poll bounds the work done after a cancellation to milliseconds.
const pollNodes = 1 << 10

// Find returns the lexicographically smallest maximum clique of g, in
// canonical vertex order.  Any representation is accepted and none is
// densified.
func Find(g graph.Interface) []int {
	c, _ := FindStats(g)
	return c
}

// FindStats is Find with search statistics.
func FindStats(g graph.Interface) ([]int, Stats) {
	c, st, _ := Search(context.Background(), g, nil)
	return c, st
}

// FindContext is Find with cancellation: the worst-case-exponential
// search polls ctx between node expansions and unwinds when it is
// done, returning ctx's error — the hook that lets a serving layer
// abandon a search when its client disconnects instead of burning CPU
// to completion.
func FindContext(ctx context.Context, g graph.Interface) ([]int, error) {
	c, _, err := Search(ctx, g, nil)
	return c, err
}

// Size returns ω(g).
func Size(g graph.Interface) int { return len(Find(g)) }

// Bytes bounds what Search charges its governor for g, Δ its maximum
// degree: the peel's three n-entry tables and the rank table, its
// buckets and the clique being grown (Δ+1 entries each), the rows
// (within 4n bytes, or one row), N(v) with its row slots, and Δ+3 sets
// of ⌈Δ/64⌉ words — the coloring's two and one set of candidates a depth.
func Bytes(g graph.Interface) int64 {
	n, d := int64(g.N()), int64(graph.MaxDegree(g))
	w := (d + 63) / 64
	return 4*(4*n+2*(d+1)) + 4*n + 8*w + 8*d + 8*(d+3)*w
}

// Search returns the lexicographically smallest maximum clique of g in
// canonical order, with the search's effort.  gov, nil allowed, is
// charged everything the search holds — within Bytes(g) — and is back at
// its entry value when Search returns.  A canceled ctx returns ctx's
// error.
func Search(ctx context.Context, g graph.Interface, gov *membudget.Governor) ([]int, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	s := newSearcher(ctx, g, gov)
	c, err := s.run(g)
	return c, s.stats, err
}

type searcher struct {
	u   *graph.Local // N(v), v the clique's first vertex
	gov *membudget.Governor
	ctx context.Context

	core  []int32 // each vertex's core number
	pos   []int32 // each vertex's place in order
	order []int32 // the degeneracy order, sparse end first
	bin   []int32 // the peel's buckets: where each degree's run of order starts

	// sets holds the coloring's two working sets, then the candidates of
	// depth d at (d+1)w, w the universe's row words.  A node writes its
	// children's candidates into depth d+1 in place.
	sets   []uint64
	clique []int32 // the clique grown so far, depth by depth

	// target is the size of clique the search is after: one above the
	// largest found so far on the first pass; ω on the second, canonical
	// pass, which stops at the first it finds.
	target    int
	canonical bool
	best      []int

	stats   Stats
	pollAt  int64 // Nodes count at which ctx is polled next
	stopped bool  // ctx was canceled, or the second pass found its clique: unwind
}

func newSearcher(ctx context.Context, g graph.Interface, gov *membudget.Governor) *searcher {
	n, maxDeg := g.N(), 0
	s := &searcher{u: graph.NewLocal(g), gov: gov, ctx: ctx, target: 1,
		core: make([]int32, n), pos: make([]int32, n), order: make([]int32, n), best: []int{}}
	for v := range n {
		s.core[v] = int32(g.Degree(v))
		maxDeg = max(maxDeg, int(s.core[v]))
	}
	s.bin, s.clique = make([]int32, maxDeg+1), make([]int32, maxDeg+1)
	s.u.Bounded = true // every row is used at once and dropped
	return s
}

// run makes both passes, charging the searcher to its governor until it
// returns.
func (s *searcher) run(g graph.Interface) ([]int, error) {
	s.gov.Charge(s.bytes())
	defer func() { s.gov.Release(s.bytes()) }() // the universe charged its growth
	s.peel(g)
	s.largest()
	if omega := s.target - 1; omega > 0 && !s.stopped {
		s.smallest(omega)
	}
	if s.stopped && len(s.best) == 0 {
		return nil, s.ctx.Err() // canceled before the second pass found the clique
	}
	return s.best, nil
}

// bytes is what the searcher holds: its tables and the universe.
func (s *searcher) bytes() int64 {
	return 4*int64(len(s.core)+len(s.pos)+len(s.order)+len(s.bin)+len(s.clique)) + s.u.Bytes()
}

// peel orders the vertices by Batagelj & Zaversnik's O(n + m) bucket
// peel: order lists them from the sparse end, and core, holding the
// degrees on entry, ends holding the core numbers, which never fall
// along the order.
func (s *searcher) peel(g graph.Interface) {
	core, pos, order, bin := s.core, s.pos, s.order, s.bin
	for _, d := range core {
		bin[d]++
	}
	start := int32(0)
	for d, c := range bin {
		bin[d], start = start, start+c
	}
	for v, d := range core {
		pos[v], order[bin[d]] = bin[d], int32(v)
		bin[d]++
	}
	copy(bin[1:], bin) // each bucket back to its start
	bin[0] = 0
	var v int32
	// One visitor for the whole peel: x, a neighbour of v, loses v.
	drop := func(x int) bool {
		if dx := core[x]; dx > core[v] {
			px, pw := pos[x], bin[dx]
			if y := order[pw]; y != int32(x) {
				order[px], order[pw] = y, int32(x)
				pos[x], pos[y] = pw, px
			}
			bin[dx]++
			core[x]--
		}
		return true
	}
	for _, v = range order {
		g.Row(int(v)).ForEach(drop)
	}
}

// largest is the first pass: it walks the order from the dense end,
// searching each vertex's later neighbours for a clique one larger than
// the best so far, and leaves target at ω + 1.
//
//repro:ctxloop
func (s *searcher) largest() {
	for i := len(s.order) - 1; i >= 0; i-- {
		v := s.order[i]
		if s.canceled(s.ctx) || int(s.core[v]) < s.target-1 {
			return // the core numbers fall along the walk: no clique of target vertices is left
		}
		s.from(int(v))
	}
}

// smallest is the second pass: the first clique of omega vertices in
// canonical order, found from its first vertex.
//
//repro:ctxloop
func (s *searcher) smallest(omega int) {
	s.target, s.canonical = omega, true
	for v := range s.core {
		if s.canceled(s.ctx) {
			return
		}
		if int(s.core[v]) >= s.target-1 {
			s.from(v)
		}
	}
}

// from searches for a clique of target vertices that v starts: inside
// N(v), among v's later neighbours — later in the degeneracy order on
// the first pass, in canonical order on the second — whose core numbers
// leave room for one.
func (s *searcher) from(v int) {
	s.u.Enter(v, s.gov)
	w := s.u.W
	s.sets = s.u.Scratch(3 * w)
	cand, k := s.sets[2*w:], 0
	clear(cand)
	for l, x := range s.u.Nbr {
		later := s.pos[x] > s.pos[v]
		if s.canonical {
			later = int(x) > v
		}
		if later && int(s.core[x]) >= s.target-1 {
			cand[l>>6] |= 1 << (l & 63)
			k++
		}
	}
	if k+1 < s.target {
		return
	}
	depth := k + 1 // each depth takes a candidate
	if s.canonical {
		depth = min(depth, s.target)
	}
	s.sets = s.u.Scratch((depth + 2) * w) // the candidates are kept
	s.clique[0] = int32(v)
	s.expand(1)
}

// canceled polls ctx once every pollNodes nodes and reports whether the
// search must unwind.
//
//repro:hotpath
func (s *searcher) canceled(ctx context.Context) bool {
	if !s.stopped && s.stats.Nodes >= s.pollAt {
		s.pollAt = s.stats.Nodes + pollNodes
		s.stopped = ctx.Err() != nil
	}
	return s.stopped
}

// expand grows clique[:d] over the candidates of depth d, in ascending
// order, pruning a node whose candidates color with fewer colors than
// the clique still needs vertices (Tomita's bound).  A node holding a
// clique of target vertices records it: the first pass then looks for
// one larger, the second stops.
//
//repro:hotpath
//repro:ctxloop
func (s *searcher) expand(d int) {
	s.stats.Nodes++
	w := s.u.W
	cand := s.sets[(d+1)*w:][:w]
	if d >= s.target {
		if s.canonical {
			s.record(d)
			return
		}
		s.target = d + 1
	}
	if s.fewerColors(cand, s.target-d) {
		s.stats.Cutoff++
		return
	}
	// Each word is walked as it stood on entry: the loop clears only bits
	// it has visited, and the children write depth d+1.
	for x := range cand {
		for word := cand[x]; word != 0; word &= word - 1 {
			if s.canceled(s.ctx) {
				return
			}
			l := x<<6 + bits.TrailingZeros64(word)
			cand[x] &^= 1 << (l & 63)
			next, row := s.sets[(d+2)*w:][:w], s.u.Row(l)
			for i := range row {
				next[i] = cand[i] & row[i]
			}
			s.clique[d] = int32(s.u.Nbr[l])
			s.expand(d + 1)
			if s.stopped || d+count(cand) < s.target {
				return
			}
		}
	}
}

// record keeps clique[:d] as the answer and stops the search.
//
//repro:hotpath
func (s *searcher) record(d int) {
	for _, x := range s.clique[:d] {
		s.best = append(s.best, int(x))
	}
	s.stopped = true
}

// fewerColors reports whether the greedy coloring of cand, one maximal
// independent set a color in ascending order, uses fewer than k colors:
// then cand holds no clique of k vertices.
//
//repro:hotpath
func (s *searcher) fewerColors(cand []uint64, k int) bool {
	if count(cand) < k {
		return true
	}
	w := len(cand)
	work, free := s.sets[:w], s.sets[w:2*w]
	copy(work, cand)
	for range k {
		copy(free, work)
		colored := false
		for x := range free {
			for free[x] != 0 {
				l := x<<6 + bits.TrailingZeros64(free[x])
				work[x] &^= 1 << (l & 63)
				row := s.u.Row(l)
				for i := x; i < w; i++ { // the words before x are empty already
					free[i] &^= row[i]
				}
				free[x] &^= 1 << (l & 63)
				colored = true
			}
		}
		if !colored {
			return true
		}
	}
	return false
}

// count returns the number of set bits of s.
func count(s []uint64) int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}
