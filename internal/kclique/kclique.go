// Package kclique implements the paper's "k-clique enumerator"
// (Section 2.2): a modification of Base Bron–Kerbosch that enumerates
// every clique of exactly size k — maximal and non-maximal — in canonical
// order.  Maximal k-cliques are reported as results; non-maximal ones are
// the seed candidates handed to the Clique Enumerator (package core),
// which continues the enumeration upward from size k.
//
// The two modifications over Base BK are exactly the paper's: (1) when
// |COMPSUB| reaches k, classify by whether NEW_CANDIDATES and NEW_NOT are
// both empty and return instead of recursing; (2) prune any node where
// |COMPSUB| + |CANDIDATES| < k.  Preprocessing removes vertices that
// cannot be in any k-clique — the paper eliminates vertices of degree
// < k-1; we run that rule to its fixed point ((k-1)-core peeling), which
// is strictly stronger and never excludes a k-clique vertex.
//
// The peel is a mask, not a copy: the search starts with CANDIDATES = the
// surviving vertices, and since every set it derives is an intersection
// with its parent's, neither CANDIDATES nor NOT ever holds a peeled
// vertex.  Below the top level the search runs inside N(v), v the top
// vertex it branched on (graph.Local, the join's universe): every set it
// derives there is an intersection with N(v), so CANDIDATES and NOT are
// ⌈deg(v)/64⌉ words over N(v), holding its survivors, and a row of
// G[N(v)] is built the first time the search touches its vertex.  No set below the
// top level is n bits wide, and no global row is read.
//
// Because Base BK selects candidates in index order, COMPSUB is strictly
// increasing along every search path.  Consequently all k-cliques sharing
// a (k-1)-vertex prefix are visited consecutively, from a single search
// node whose CANDIDATES ∪ NOT is precisely the common-neighbor set of the
// prefix — which is exactly the sub-list layout (shared prefix, prefix
// common-neighbor bitmap, tail array) the Clique Enumerator consumes, so
// seeding requires no regrouping pass.
//
// The search allocates one universe per run and nothing per node, and it
// polls its context every 1 024 nodes: a seed at the paper's scale runs
// for seconds.
package kclique

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// pollNodes is how many search nodes may pass between two cancellation
// polls: a node is at most a few row ANDs, so the poll bounds the work
// done after a cancellation to about a millisecond.
const pollNodes = 1 << 10

// Group is one sub-list-shaped batch of k-cliques: all share Prefix (k-1
// vertices, canonical order), and each tail vertex extends it to a
// k-clique.  MaximalTails lists tails whose k-clique is maximal;
// CandidateTails lists the rest (the Clique Enumerator's seed
// candidates).  All tails exceed Prefix's last vertex and are increasing.
//
// Callers must treat a Group as borrowed: the enumerator reuses the
// backing storage between Group deliveries.
type Group struct {
	Prefix         []int
	MaximalTails   []int
	CandidateTails []int
}

// Options configures Enumerate.
type Options struct {
	// K is the clique size to enumerate; must be >= 2.
	K int
	// OnGroup, if non-nil, receives each non-empty group of k-cliques.
	OnGroup func(g Group)
	// Shard and Shards split the enumeration for parallel seeding.  When
	// Shards > 1, the top-level branch vertices — the survivors of the
	// peel, in index order — are cut into Shards contiguous ranges of
	// ranks and only range Shard (0-based) is enumerated.  Every k-clique
	// is found in exactly the shard holding its smallest vertex, and Base
	// BK's index-order selection means concatenating shard outputs in
	// shard order reproduces the canonical full enumeration.  Shards <= 1
	// disables sharding.
	Shard, Shards int
	// Gov, when non-nil, is charged the search's scratch — the universe
	// and the sets below the top level — while Enumerate runs; it is
	// released before Enumerate returns.
	Gov *membudget.Governor
}

// Stats reports counters from one enumeration run.
type Stats struct {
	Maximal      int64 // maximal k-cliques found
	Candidates   int64 // non-maximal k-cliques found
	Groups       int64 // groups delivered
	PeeledAway   int   // vertices removed by preprocessing
	SearchNodes  int64 // EXTEND invocations
	BoundaryCuts int64 // nodes pruned by |COMPSUB|+|CANDIDATES| < k
}

// Prepared is the peeled enumeration context: the graph and the mask of
// its vertices that survived the (k-1)-core peel.  Preparing once and
// running several sharded Enumerate calls over it — concurrently if
// desired; Prepared itself is read-only during enumeration — avoids
// repeating the peel per shard, which is how the parallel seeder uses it.
type Prepared struct {
	g         graph.Interface
	alive     *bitset.Bitset
	survivors int // alive.Count()
	k         int // the clique size
}

// Prepare peels g for size-k enumeration.  Any representation is
// accepted.
func Prepare(g graph.Interface, k int) *Prepared {
	if k < 2 {
		panic("kclique: K must be >= 2")
	}
	alive := graph.KCorePeel(g, k-1)
	return &Prepared{g: g, alive: alive, survivors: alive.Count(), k: k}
}

// Bytes is the prepared state's footprint: the survivors' mask.
func (p *Prepared) Bytes() int64 { return int64(p.alive.Bytes()) }

// Enumerate runs the (optionally sharded) enumeration over the prepared
// graph.  opts.K must match the prepared k.  When ctx is canceled the search unwinds within pollNodes nodes and Enumerate
// returns an error wrapping ctx.Err(); the groups delivered until then
// are a prefix of the full enumeration.
func (p *Prepared) Enumerate(ctx context.Context, opts Options) (Stats, error) {
	if opts.K != p.k {
		panic("kclique: Options.K differs from Prepared k")
	}
	if opts.Shards > 1 && (opts.Shard < 0 || opts.Shard >= opts.Shards) {
		panic("kclique: Shard out of [0, Shards)")
	}
	st := Stats{PeeledAway: p.g.N() - p.survivors}
	if p.survivors < p.k {
		return st, nil
	}

	// A shard is the root of the search with the survivors below rank lo
	// in NOT — the state Base BK reaches on arriving at the shard's first
	// top-level vertex — branching up to rank hi.
	lo, hi := 0, p.survivors
	if opts.Shards > 1 {
		lo, hi = p.survivors*opts.Shard/opts.Shards, p.survivors*(opts.Shard+1)/opts.Shards
	}
	e := &searcher{
		u:       graph.NewLocal(p.g),
		alive:   p.alive,
		gov:     opts.Gov,
		k:       p.k,
		onGroup: opts.OnGroup,
		st:      &st,
		ctx:     ctx,
		prefix:  make([]int, p.k-1),
	}
	e.u.Bounded = true // a row is ANDed into the sets as the search gets it
	e.group = Group{Prefix: e.prefix}
	e.gov.Charge(e.u.Bytes())
	defer func() { e.gov.Release(e.u.Bytes()) }() // the universe charged its growth

	// The root: CANDIDATES holds the survivors of rank lo and above.
	st.SearchNodes++
	if p.survivors-lo < p.k {
		st.BoundaryCuts++
		return st, nil
	}
	r := 0
	for v, ok := p.alive.NextSet(0); ok && r < hi; v, ok = p.alive.NextSet(v + 1) {
		if r++; r <= lo {
			continue // below the shard: in NOT
		}
		if e.canceled(ctx) {
			break
		}
		e.branch(v)
	}
	if e.stopped {
		return st, fmt.Errorf("kclique: canceled after %d search nodes: %w", st.SearchNodes, ctx.Err())
	}
	return st, nil
}

type searcher struct {
	u       *graph.Local // N(prefix[0])
	alive   *bitset.Bitset
	gov     *membudget.Governor
	k       int
	onGroup func(Group)
	st      *Stats

	ctx     context.Context
	pollAt  int64 // SearchNodes count at which ctx is polled next
	stopped bool  // ctx was canceled: unwind

	// sets holds CANDIDATES and NOT of the nodes at depths 1..k-1, w
	// words each in the universe of the top-level vertex: depth d's
	// CANDIDATES at (2d-2)w, its NOT at (2d-1)w.  A node writes its
	// children's sets into depth d+1 in place.
	sets   []uint64
	prefix []int // COMPSUB, strictly increasing; prefix[:d] at depth d
	group  Group // what onGroup receives, its slices reused
}

// canceled polls ctx once every pollNodes nodes and reports whether the
// search must unwind.
//
//repro:hotpath
func (e *searcher) canceled(ctx context.Context) bool {
	if e.st.SearchNodes >= e.pollAt {
		e.pollAt = e.st.SearchNodes + pollNodes
		e.stopped = ctx.Err() != nil
	}
	return e.stopped
}

// branch is the root's branch on top-level vertex v: the universe
// becomes N(v), and depth 1's CANDIDATES and NOT are its surviving
// members after and before v — the survivors the root has not yet and
// has already branched on.
func (e *searcher) branch(v int) {
	e.u.Enter(v, e.gov)
	w := e.u.W
	e.sets = e.u.Scratch(2 * (e.k - 1) * w)
	cand, not := e.sets[:w], e.sets[w:2*w]
	clear(e.sets[:2*w])
	for l, x := range e.u.Nbr {
		switch {
		case !e.alive.Test(int(x)):
		case int(x) > v:
			cand[l>>6] |= 1 << (l & 63)
		default:
			not[l>>6] |= 1 << (l & 63)
		}
	}
	e.prefix[0] = v
	e.extend(1)
}

// extend is Base BK's EXTEND at depth d = |COMPSUB| >= 1, inside the
// universe of prefix[0].
//
//repro:hotpath
//repro:ctxloop
func (e *searcher) extend(d int) {
	e.st.SearchNodes++
	w := e.u.W
	cand, not := e.sets[(2*d-2)*w:][:w], e.sets[(2*d-1)*w:][:w]
	// Boundary condition: not enough vertices left to reach size k.
	if d+count(cand) < e.k {
		e.st.BoundaryCuts++
		return
	}
	if d == e.k-1 {
		e.emitGroup(cand, not)
		return
	}
	nextCand, nextNot := e.sets[2*d*w:][:w], e.sets[(2*d+1)*w:][:w]
	// Each word is walked as it stood on entry: the loop clears only bits
	// it has visited, and the children write depth d+1.
	for x := range cand {
		for word := cand[x]; word != 0; word &= word - 1 {
			if e.canceled(e.ctx) {
				return
			}
			l := x<<6 + bits.TrailingZeros64(word)
			rv := e.u.Row(l)
			for i := range rv {
				nextCand[i], nextNot[i] = cand[i]&rv[i], not[i]&rv[i]
			}
			e.prefix[d] = int(e.u.Nbr[l])
			e.extend(d + 1)
			cand[x] &^= 1 << (l & 63)
			not[x] |= 1 << (l & 63)
		}
	}
}

// count returns the number of set bits of s.
func count(s []uint64) int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}

// emitGroup classifies every k-clique prefix+t for tails t in cand and
// delivers one Group.  cand ∪ not is the common-neighbor set of the
// prefix.
//
//repro:hotpath
func (e *searcher) emitGroup(cand, not []uint64) {
	e.group.MaximalTails = e.group.MaximalTails[:0]
	e.group.CandidateTails = e.group.CandidateTails[:0]
	for x := range cand {
		for word := cand[x]; word != 0; word &= word - 1 { // increasing, all > prefix max
			l := x<<6 + bits.TrailingZeros64(word)
			// The k-clique prefix+t is maximal iff no vertex is adjacent to
			// all of prefix and to t: (cand ∪ not) ∩ N(t) = ∅.
			rt, extends := e.u.Row(l), false
			for i := 0; i < len(rt) && !extends; i++ {
				extends = rt[i]&(cand[i]|not[i]) != 0
			}
			if t := int(e.u.Nbr[l]); extends {
				e.group.CandidateTails = append(e.group.CandidateTails, t)
			} else {
				e.group.MaximalTails = append(e.group.MaximalTails, t)
			}
		}
	}
	e.st.Maximal += int64(len(e.group.MaximalTails))
	e.st.Candidates += int64(len(e.group.CandidateTails))
	e.st.Groups++

	if e.onGroup == nil {
		return
	}
	e.onGroup(e.group)
}
