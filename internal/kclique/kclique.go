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
// vertex.  A compacted copy of the survivors is built only when it at
// least halves the width of every bitmap the search touches — on graph C
// that is Init_K >= 7, where a few dozen of thousands of vertices survive;
// below it the peel keeps most vertices and a copy would be pure cost.
//
// Because Base BK selects candidates in index order, COMPSUB is strictly
// increasing along every search path.  Consequently all k-cliques sharing
// a (k-1)-vertex prefix are visited consecutively, from a single search
// node whose CANDIDATES ∪ NOT is precisely the common-neighbor set of the
// prefix — which is exactly the sub-list layout (shared prefix, prefix
// common-neighbor bitmap, tail array) the Clique Enumerator consumes, so
// seeding requires no regrouping pass.  The bitmap itself is built only
// when a consumer asks for it (Group.PrefixCN).
//
// The search allocates its bitmaps once per run — two per depth — and
// nothing per node, and it polls its context every 1 024 nodes: a seed
// at the paper's scale runs for seconds.
package kclique

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/graph"
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

	cand, not *bitset.Bitset // the delivering node's sets, over the working graph
	newToOld  []int          // working graph -> original IDs; nil when they coincide
	n         int            // the original graph's order
}

// PrefixCN returns the common-neighbor bitmap of Prefix over the ORIGINAL
// graph's vertex universe, freshly allocated: the caller owns it.  It is
// computed on demand from the delivering search node, so it may only be
// called during the OnGroup call that received the Group.
func (gr Group) PrefixCN() *bitset.Bitset {
	cn := bitset.New(gr.n)
	if gr.newToOld == nil {
		cn.Or(gr.cand, gr.not)
		return cn
	}
	for _, s := range [2]*bitset.Bitset{gr.cand, gr.not} {
		for v, ok := s.NextSet(0); ok; v, ok = s.NextSet(v + 1) {
			cn.Set(gr.newToOld[v])
		}
	}
	return cn
}

// Options configures Enumerate.
type Options struct {
	// K is the clique size to enumerate; must be >= 2.
	K int
	// OnGroup, if non-nil, receives each non-empty group of k-cliques.
	OnGroup func(g Group)
	// SkipPeel disables the (k-1)-core preprocessing (for tests and
	// ablation benchmarks).
	SkipPeel bool
	// Shard and Shards split the enumeration for parallel seeding.  When
	// Shards > 1, the top-level branch vertices — the survivors of the
	// peel, in index order — are cut into Shards contiguous ranges of
	// ranks and only range Shard (0-based) is enumerated.  Every k-clique
	// is found in exactly the shard holding its smallest vertex, and Base
	// BK's index-order selection means concatenating shard outputs in
	// shard order reproduces the canonical full enumeration.  Shards <= 1
	// disables sharding.
	Shard, Shards int
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

// Enumerate finds every k-clique of g and reports them through
// opts.OnGroup.  It returns run statistics.
func Enumerate(g graph.Interface, opts Options) Stats {
	st, _ := prepare(g, opts.K, opts.SkipPeel).Enumerate(context.Background(), opts)
	return st
}

// Prepared is the peeled enumeration context: the working graph, the
// mask of its vertices that survived the (k-1)-core peel, and — when the
// working graph is a compacted copy — its translation back to the
// original vertex universe.  Preparing once and running several sharded
// Enumerate calls over it — concurrently if desired; Prepared itself is
// read-only during enumeration — avoids repeating the peel per shard,
// which is how the parallel seeder uses it.
type Prepared struct {
	work      graph.Interface
	alive     *bitset.Bitset // over work
	survivors int            // alive.Count()
	newToOld  []int          // nil when work is the original graph
	n, k      int            // the original graph's order; the clique size
}

// Prepare peels g for size-k enumeration.  Any representation is
// accepted; a compacted working graph keeps the input's representation,
// so sparse inputs stay sparse through seeding.
func Prepare(g graph.Interface, k int) *Prepared {
	return prepare(g, k, false)
}

func prepare(g graph.Interface, k int, skipPeel bool) *Prepared {
	if k < 2 {
		panic("kclique: K must be >= 2")
	}
	n := g.N()
	p := &Prepared{work: g, n: n, k: k}
	if skipPeel {
		p.alive = bitset.New(n)
		p.alive.SetAll()
	} else {
		p.alive = graph.KCorePeel(g, k-1)
	}
	p.survivors = p.alive.Count()
	if p.survivors < n && 2*words(p.survivors) <= words(n) {
		// The copy at least halves every row and bitmap of the search
		// (a quarter of the adjacency); any less and it costs more than
		// it saves.
		p.work, p.newToOld = graph.InducedSubgraph(g, p.alive)
		p.alive = bitset.New(p.survivors)
		p.alive.SetAll()
	}
	return p
}

func words(n int) int { return (n + 63) / 64 }

// vertexAtRank returns the surviving vertex of rank r in index order, or
// the working graph's order when r is the number of survivors.
func (p *Prepared) vertexAtRank(r int) int {
	for v, ok := p.alive.NextSet(0); ok; v, ok = p.alive.NextSet(v + 1) {
		if r == 0 {
			return v
		}
		r--
	}
	return p.work.N()
}

// Enumerate runs the (optionally sharded) enumeration over the prepared
// graph.  opts.K must match the prepared k; opts.SkipPeel is ignored
// (peeling already happened, or was skipped, at Prepare time).  When ctx
// is canceled the search unwinds within pollNodes nodes and Enumerate
// returns an error wrapping ctx.Err(); the groups delivered until then
// are a prefix of the full enumeration.
func (p *Prepared) Enumerate(ctx context.Context, opts Options) (Stats, error) {
	if opts.K != p.k {
		panic("kclique: Options.K differs from Prepared k")
	}
	if opts.Shards > 1 && (opts.Shard < 0 || opts.Shard >= opts.Shards) {
		panic("kclique: Shard out of [0, Shards)")
	}
	st := Stats{PeeledAway: p.n - p.survivors}
	if p.survivors < p.k {
		return st, nil
	}

	// Sharded runs reproduce the exact search state Base BK would have on
	// reaching top-level vertex `from`: the survivors below it sit in NOT,
	// the rest are candidates, and branching stops at `to`.
	from, to := 0, p.work.N()
	if opts.Shards > 1 {
		from = p.vertexAtRank(p.survivors * opts.Shard / opts.Shards)
		to = p.vertexAtRank(p.survivors * (opts.Shard + 1) / opts.Shards)
	}

	width := p.work.N()
	e := &searcher{
		g:        p.work,
		k:        p.k,
		topLimit: to,
		onGroup:  opts.OnGroup,
		st:       &st,
		ctx:      ctx,
		cand:     make([]*bitset.Bitset, p.k),
		not:      make([]*bitset.Bitset, p.k),
		prefix:   make([]int, p.k-1),
	}
	for d := range e.cand {
		e.cand[d], e.not[d] = bitset.New(width), bitset.New(width)
	}
	e.group = Group{Prefix: make([]int, p.k-1), newToOld: p.newToOld, n: p.n}
	e.cand[0].CopyFrom(p.alive)
	for v, ok := p.alive.NextSet(0); ok && v < from; v, ok = p.alive.NextSet(v + 1) {
		e.cand[0].Clear(v)
		e.not[0].Set(v)
	}
	e.extend(0)
	if e.stopped {
		return st, fmt.Errorf("kclique: canceled after %d search nodes: %w", st.SearchNodes, ctx.Err())
	}
	return st, nil
}

type searcher struct {
	g        graph.Interface // working graph
	k        int
	topLimit int // exclusive bound on top-level branch vertices (sharding)
	onGroup  func(Group)
	st       *Stats

	ctx     context.Context
	pollAt  int64 // SearchNodes count at which ctx is polled next
	stopped bool  // ctx was canceled: unwind

	// cand[d] and not[d] are CANDIDATES and NOT of the node at depth d;
	// a node writes its children's sets into depth d+1 in place.
	cand, not []*bitset.Bitset
	prefix    []int // COMPSUB, strictly increasing; prefix[:d] at depth d
	group     Group // what onGroup receives, its slices reused
}

func (e *searcher) toOld(v int) int {
	if e.group.newToOld == nil {
		return v
	}
	return e.group.newToOld[v]
}

// extend is Base BK's EXTEND at depth d = |COMPSUB|.
//
//repro:hotpath
//repro:ctxloop
func (e *searcher) extend(d int) {
	e.st.SearchNodes++
	cand, not := e.cand[d], e.not[d]
	// Boundary condition: not enough vertices left to reach size k.
	if d+cand.Count() < e.k {
		e.st.BoundaryCuts++
		return
	}
	if d == e.k-1 {
		e.emitGroup(cand, not)
		return
	}
	// Removing v from cand below leaves every later candidate in place,
	// so walking cand as it shrinks visits exactly its starting members.
	for v, ok := cand.NextSet(0); ok; v, ok = cand.NextSet(v + 1) {
		if d == 0 && v >= e.topLimit {
			break // outside this shard's top-level range
		}
		if e.st.SearchNodes >= e.pollAt {
			e.pollAt = e.st.SearchNodes + pollNodes
			e.stopped = e.ctx.Err() != nil
		}
		if e.stopped {
			return
		}
		rv := e.g.Row(v)
		rv.AndInto(e.cand[d+1], cand)
		rv.AndInto(e.not[d+1], not)
		e.prefix[d] = v
		e.extend(d + 1)
		cand.Clear(v)
		not.Set(v)
	}
}

// emitGroup classifies every k-clique prefix+t for tails t in cand and
// delivers one Group.  cand ∪ not is the common-neighbor set of the
// prefix; the Group carries both so PrefixCN can build it on demand.
//
//repro:hotpath
func (e *searcher) emitGroup(cand, not *bitset.Bitset) {
	e.group.MaximalTails = e.group.MaximalTails[:0]
	e.group.CandidateTails = e.group.CandidateTails[:0]
	for t, ok := cand.NextSet(0); ok; t, ok = cand.NextSet(t + 1) { // increasing, all > prefix max
		nt := e.g.Row(t)
		// The k-clique prefix+t is maximal iff no vertex is adjacent to
		// all of prefix and to t: (cand ∪ not) ∩ N(t) = ∅.  Checking the
		// two halves separately avoids materializing the union.
		if nt.IntersectsWith(cand) || nt.IntersectsWith(not) {
			e.group.CandidateTails = append(e.group.CandidateTails, e.toOld(t))
		} else {
			e.group.MaximalTails = append(e.group.MaximalTails, e.toOld(t))
		}
	}
	e.st.Maximal += int64(len(e.group.MaximalTails))
	e.st.Candidates += int64(len(e.group.CandidateTails))
	e.st.Groups++

	if e.onGroup == nil {
		return
	}
	for i, v := range e.prefix {
		e.group.Prefix[i] = e.toOld(v)
	}
	e.group.cand, e.group.not = cand, not
	e.onGroup(e.group)
}

// All returns every k-clique of g, split into maximal and non-maximal,
// each in canonical order.  Convenience for tests and small runs.
func All(g graph.Interface, k int) (maximal, candidates []clique.Clique) {
	Enumerate(g, Options{
		K: k,
		OnGroup: func(gr Group) {
			for _, t := range gr.MaximalTails {
				c := append(clique.Clique(nil), gr.Prefix...)
				maximal = append(maximal, append(c, t))
			}
			for _, t := range gr.CandidateTails {
				c := append(clique.Clique(nil), gr.Prefix...)
				candidates = append(candidates, append(c, t))
			}
		},
	})
	return maximal, candidates
}
