package core

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/kclique"
)

// Seed builds the sequential seed level at size max(lo, 2), reporting
// the maximal lo-cliques the level machinery will not regenerate (and,
// with small set, the maximal 1-/2-cliques below it) to r.  Canceling
// ctx (nil: never) stops a k-clique seed within a thousand search nodes,
// with an error wrapping ctx.Err().
func Seed(ctx context.Context, g graph.Interface, lo int, mode CNMode, small bool, r clique.Reporter) (*Level, error) {
	if lo > 2 {
		if ctx == nil {
			ctx = context.Background()
		}
		lvl, _, err := seedFromK(ctx, g, lo, mode, r)
		return lvl, err
	}
	if small {
		reportSmall(g, lo, r)
	}
	return SeedFromEdgesMode(g, mode), nil
}

// reportSmall emits maximal 1-cliques (when lo <= 1) and maximal
// 2-cliques (when lo <= 2).  These sizes fall outside the sub-list join
// machinery: a size-s maximal clique is only discovered when generated at
// step (s-1) -> s, so the two smallest sizes need direct checks.
func reportSmall(g graph.Interface, lo int, r clique.Reporter) {
	if lo <= 1 {
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) == 0 {
				r.Emit(clique.Clique{v})
			}
		}
	}
	scratch := bitset.New(g.N())
	graph.ForEachEdge(g, func(u, v int) bool {
		g.Materialize(u, scratch)
		g.Row(v).IntersectInto(scratch)
		if scratch.None() {
			r.Emit(clique.Clique{u, v})
		}
		return true
	})
}

// SeedFromEdgesMode builds the initial level of 2-clique sub-lists from
// the graph's edges: one sub-list per vertex a holding CN = N(a) (kept as
// mode says) and tails = neighbors of a greater than a.  Sub-lists with
// fewer than two tails are dropped (they cannot join pairs), which is the
// paper's N[2] <= n-2, M[2] = m initialization.
func SeedFromEdgesMode(g graph.Interface, mode CNMode) *Level {
	return &Level{K: 2, Sub: seedEdgeRange(g, mode, 0, g.N())}
}

// seedEdgeRange builds the blocks of the 2-clique sub-lists whose anchor
// vertex lies in [from, to).  Anchor ranges partition the seed level, and
// concatenating range outputs in range order reproduces
// SeedFromEdgesMode's record stream exactly (every 2-clique sub-list
// starts a run: its one-vertex prefix shares nothing with its
// neighbour's) — the property the parallel seeder relies on.
func seedEdgeRange(g graph.Interface, mode CNMode, from, to int) []Block {
	sink := newBlockSink(nil)
	var tails []uint32
	for a := from; a < to; a++ {
		tails = tails[:0]
		g.Row(a).ForEach(func(v int) bool {
			if v > a {
				tails = append(tails, uint32(v))
			}
			return true
		})
		if len(tails) < 2 {
			continue
		}
		var cn *bitset.Bitset
		if mode == CNStore {
			cn = bitset.New(g.N())
			g.Materialize(a, cn)
		}
		sink.append(nil, uint32(a), tails, cn)
	}
	return sink.finish(0)
}

// SeedFromKMode builds the initial candidate level at size k using the
// k-clique enumerator, reporting maximal k-cliques to r.  The returned
// level holds every non-maximal k-clique, grouped into sub-lists by
// shared (k-1)-prefix, with prefix common-neighbor bitmaps kept as mode
// says.
func SeedFromKMode(g graph.Interface, k int, mode CNMode, r clique.Reporter) (*Level, kclique.Stats, error) {
	return seedFromK(context.Background(), g, k, mode, r)
}

// seedFromK is SeedFromKMode under a context: a canceled seed returns no
// level and an error wrapping ctx.Err().
func seedFromK(ctx context.Context, g graph.Interface, k int, mode CNMode, r clique.Reporter) (*Level, kclique.Stats, error) {
	if k < 3 {
		return nil, kclique.Stats{}, fmt.Errorf("core: SeedFromKMode requires k >= 3, got %d", k)
	}
	seed := groupSink{sink: newBlockSink(nil), mode: mode}
	var emitBuf clique.Clique
	st, err := kclique.Prepare(g, k).Enumerate(ctx, kclique.Options{
		K: k,
		OnGroup: func(gr kclique.Group) {
			if r != nil {
				for _, t := range gr.MaximalTails {
					emitBuf = emitBuf[:0]
					emitBuf = append(emitBuf, gr.Prefix...)
					emitBuf = append(emitBuf, t)
					r.Emit(emitBuf)
				}
			}
			seed.add(gr)
		},
	})
	if err != nil {
		return nil, st, fmt.Errorf("core: seeding at k=%d: %w", k, err)
	}
	return &Level{K: k, Sub: seed.sink.finish(0)}, st, nil
}

// groupSink turns k-clique groups into the records of a seed level.
type groupSink struct {
	sink          blockSink
	mode          CNMode
	prefix, tails []uint32
}

// add copies one k-clique group (whose fields are borrowed) into the
// level as a candidate sub-list, unless the paper's |S| > 1 rule
// discards it (a lone candidate cannot join).
func (s *groupSink) add(gr kclique.Group) {
	if len(gr.CandidateTails) < 2 {
		return
	}
	s.prefix, s.tails = s.prefix[:0], s.tails[:0]
	for _, p := range gr.Prefix {
		s.prefix = append(s.prefix, uint32(p))
	}
	for _, t := range gr.CandidateTails {
		s.tails = append(s.tails, uint32(t))
	}
	var cn *bitset.Bitset
	if s.mode == CNStore {
		cn = gr.PrefixCN()
	}
	s.sink.appendRecord(s.prefix, s.tails, cn)
}
