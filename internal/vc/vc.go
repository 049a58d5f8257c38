// Package vc implements a fixed-parameter-tractable vertex cover solver,
// the route the paper takes to maximum clique: "clique is not FPT unless
// the W hierarchy collapses.  Thus we focus instead on clique's
// complementary dual, the vertex cover problem" (Section 4).  A maximum
// clique of G is the complement of a minimum vertex cover of the
// complement graph: ω(G) = n − τ(Ḡ).
//
// The solver is kernelization + bounded search-tree branching, the
// architecture of the Abu-Khzam/Langston implementations the paper cites:
//
//   - degree-0 vertices are discarded;
//   - degree-1 vertices force their neighbor into the cover;
//   - vertices of degree > k must be in any k-cover (the high-degree
//     rule), and after it applies, a kernel with more than k² edges is a
//     certified "no" (Buss's bound);
//   - branching picks a maximum-degree vertex v and recurses on the two
//     exhaustive cases: v in the cover (k-1) or all of N(v) in the cover
//     (k-|N(v)|).
//
// The branch factor is that of the classic O(1.47^k) algorithm; the
// asymptotically faster O(1.2759^k) refinements the paper cites
// (Chandran-Grandoni memorization) change the polynomial bookkeeping, not
// the interface, and are unnecessary at the parameter ranges of the
// paper's graphs.
//
// Nothing outside tests imports the package, on purpose: MaxCliqueViaVC
// is the independent oracle internal/maxclique's tests hold the exact
// branch-and-bound search to — a second route to ω(G) that shares no code
// with the search it checks (DESIGN.md §10 records the verdict).
package vc

import (
	"repro/internal/bitset"
	"repro/internal/graph"
)

// Stats reports search effort.
type Stats struct {
	BranchNodes int64 // search-tree nodes expanded
	KernelWins  int64 // subproblems closed by kernelization alone
}

// Decide reports whether g has a vertex cover of size at most k and, if
// so, returns one (not necessarily minimum).
func Decide(g graph.Interface, k int) ([]int, bool) {
	cover, ok, _ := DecideStats(g, k)
	return cover, ok
}

// DecideStats is Decide with search statistics.  Any representation is
// accepted; non-dense graphs are densified at entry (the kernelization
// maintains soft-deleted dense rows).
func DecideStats(gi graph.Interface, k int) ([]int, bool, Stats) {
	if k < 0 {
		return nil, false, Stats{}
	}
	g := graph.Densify(gi)
	s := &solver{g: g, n: g.N()}
	s.deg = make([]int, s.n)
	s.alive = bitset.New(s.n)
	s.alive.SetAll()
	m := 0
	for v := 0; v < s.n; v++ {
		s.deg[v] = g.Degree(v)
		m += s.deg[v]
	}
	s.m = m / 2
	cover, ok := s.search(k)
	if ok {
		sortInts(cover)
	}
	return cover, ok, s.stats
}

// MinimumCover returns a minimum vertex cover of g, found by growing k
// from a maximal-matching lower bound.  Non-dense inputs are densified
// once here, not once per k iteration.
func MinimumCover(gi graph.Interface) []int {
	g := graph.Densify(gi)
	lb := matchingLowerBound(g)
	for k := lb; ; k++ {
		if cover, ok := Decide(g, k); ok {
			return cover
		}
	}
}

// matchingLowerBound returns the size of a greedily built maximal
// matching: any vertex cover must take one endpoint per matched edge.
func matchingLowerBound(g graph.Interface) int {
	used := bitset.New(g.N())
	size := 0
	graph.ForEachEdge(g, func(u, v int) bool {
		if !used.Test(u) && !used.Test(v) {
			used.Set(u)
			used.Set(v)
			size++
		}
		return true
	})
	return size
}

// MaxCliqueViaVC computes a maximum clique of g by solving minimum vertex
// cover on the complement: the vertices outside the cover form a maximum
// independent set of Ḡ, which is a maximum clique of G.
func MaxCliqueViaVC(gi graph.Interface) []int {
	g := graph.Densify(gi)
	comp := g.Complement()
	cover := MinimumCover(comp)
	inCover := bitset.New(g.N())
	for _, v := range cover {
		inCover.Set(v)
	}
	var clique []int
	for v := 0; v < g.N(); v++ {
		if !inCover.Test(v) {
			clique = append(clique, v)
		}
	}
	return clique
}

// solver carries the mutable search state.  Vertices are soft-deleted via
// the alive set with incrementally maintained degrees, so branching and
// undoing are O(degree).
type solver struct {
	g     *graph.Graph
	n     int
	m     int // live edges
	alive *bitset.Bitset
	deg   []int
	cover []int
	stats Stats
}

// remove soft-deletes v and returns its live neighbors (for undo).
func (s *solver) remove(v int) []int {
	var ns []int
	s.g.Neighbors(v).ForEach(func(u int) bool {
		if s.alive.Test(u) {
			ns = append(ns, u)
			s.deg[u]--
			s.m--
		}
		return true
	})
	s.alive.Clear(v)
	s.deg[v] = 0
	return ns
}

// restore undoes remove(v) given its recorded live neighbors.
func (s *solver) restore(v int, ns []int) {
	s.alive.Set(v)
	for _, u := range ns {
		s.deg[u]++
		s.m++
	}
	s.deg[v] = len(ns)
}

// search decides whether the live subgraph has a cover of size <= k,
// appending chosen vertices to s.cover.
func (s *solver) search(k int) ([]int, bool) {
	s.stats.BranchNodes++
	mark := len(s.cover)
	type undo struct {
		v  int
		ns []int
	}
	var undos []undo
	take := func(v int) {
		undos = append(undos, undo{v, s.remove(v)})
		s.cover = append(s.cover, v)
		k--
	}
	unwind := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			s.restore(undos[i].v, undos[i].ns)
		}
		s.cover = s.cover[:mark]
	}

	// Kernelize to a fixed point.
	for {
		if s.m == 0 {
			result := append([]int(nil), s.cover...)
			unwind()
			s.stats.KernelWins++
			return result, true
		}
		if k <= 0 {
			unwind()
			return nil, false
		}
		applied := false
		// High-degree rule, then degree-1 rule, scanning live vertices.
		for v := 0; v < s.n && !applied; v++ {
			if !s.alive.Test(v) || s.deg[v] == 0 {
				continue
			}
			if s.deg[v] > k {
				take(v)
				applied = true
			} else if s.deg[v] == 1 {
				// Take the single neighbor instead of v.
				u := -1
				s.g.Neighbors(v).ForEach(func(w int) bool {
					if s.alive.Test(w) {
						u = w
						return false
					}
					return true
				})
				take(u)
				applied = true
			}
		}
		if !applied {
			break
		}
	}
	// Buss: a (k, max-degree<=k) kernel has at most k^2 coverable edges.
	if s.m > k*k {
		unwind()
		return nil, false
	}

	// Branch on a maximum-degree vertex.
	best, bestDeg := -1, 0
	for v := 0; v < s.n; v++ {
		if s.alive.Test(v) && s.deg[v] > bestDeg {
			best, bestDeg = v, s.deg[v]
		}
	}
	if best < 0 { // no live edges; handled above, defensive
		result := append([]int(nil), s.cover...)
		unwind()
		return result, true
	}

	// Case 1: best joins the cover.
	ns := s.remove(best)
	s.cover = append(s.cover, best)
	if result, ok := s.search(k - 1); ok {
		s.cover = s.cover[:len(s.cover)-1]
		s.restore(best, ns)
		unwind()
		return result, true
	}
	s.cover = s.cover[:len(s.cover)-1]
	s.restore(best, ns)

	// Case 2: all of N(best) join the cover.
	if len(ns) <= k {
		var caseUndos []undo
		for _, u := range ns {
			caseUndos = append(caseUndos, undo{u, s.remove(u)})
			s.cover = append(s.cover, u)
		}
		if result, ok := s.search(k - len(ns)); ok {
			for i := len(caseUndos) - 1; i >= 0; i-- {
				s.restore(caseUndos[i].v, caseUndos[i].ns)
			}
			s.cover = s.cover[:len(s.cover)-len(ns)]
			unwind()
			return result, true
		}
		for i := len(caseUndos) - 1; i >= 0; i-- {
			s.restore(caseUndos[i].v, caseUndos[i].ns)
		}
		s.cover = s.cover[:len(s.cover)-len(ns)]
	}

	unwind()
	return nil, false
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
