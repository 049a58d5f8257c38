package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/kclique"
	"repro/internal/membudget"
)

// seedShardsPerWorker oversubscribes the seed phase: each worker is fed
// several contiguous vertex shards from a shared counter, so the skew of
// low-index shards (whose candidate sets are largest) self-balances
// without a static assignment.
const seedShardsPerWorker = 4

// Seed builds the seed level at size max(lo, 2) on `workers` goroutines
// and returns it with the creator worker of every block — the initial
// ownership the Affinity strategy schedules by.  It reports to r the
// maximal lo-cliques the level machinery will not regenerate and, with
// small set, the maximal 1-/2-cliques below it; both are emitted before
// any level work, so they arrive in the same order at any width.
//
// At one worker the seed is sequential.  At more, workers claim
// contiguous vertex shards dynamically and the shard outputs are merged
// in shard order: the level's record stream and the reports are the
// sequential seed's exactly, cut into at least one block per shard (a
// shard starts where the smallest vertex changes, which starts a run in
// the sequential seed too).  Canceling ctx (nil: never) stops a k-clique
// seed within a thousand search nodes and a sharded seed between shards;
// a seed it stops returns no level and an error wrapping ctx.Err().
//
// gov (nil: unaccounted) is charged the k-clique search's scratch while
// it runs — the survivors' mask and each shard's universe — and is back
// at its entry value when Seed returns, on every path.  The level is
// not charged: the level loop charges it on entry.
func Seed(ctx context.Context, g graph.Interface, lo, workers int, small bool, r clique.Reporter, gov *membudget.Governor) (*Level, []int32, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if lo <= 2 {
		if small {
			reportSmall(g, lo, r)
		}
		lo = 2
	}
	lvl, homes, _, err := seedAt(ctx, g, lo, workers, r, gov)
	return lvl, homes, err
}

// SeedFromK is the k-clique seed at size k >= 3 on `workers` goroutines
// without a context: Seed, plus the k-clique enumerator's counters summed
// over the shards.
func SeedFromK(g graph.Interface, k, workers int, r clique.Reporter) (*Level, []int32, kclique.Stats, error) {
	if k < 3 {
		return nil, nil, kclique.Stats{}, fmt.Errorf("core: seeding from k-cliques requires k >= 3, got %d", k)
	}
	return seedAt(context.Background(), g, k, workers, r, nil)
}

// SeedFromKMode is SeedFromK at one worker for the frozen benchmark
// module; the mode is ignored (see CNMode).
func SeedFromKMode(g graph.Interface, k int, _ CNMode, r clique.Reporter) (*Level, kclique.Stats, error) {
	lvl, _, st, err := SeedFromK(g, k, 1, r)
	return lvl, st, err
}

// SeedFromKParallel is SeedFromK for the frozen benchmark module; the
// mode is ignored (see CNMode).
func SeedFromKParallel(g graph.Interface, k int, _ CNMode, workers int, r clique.Reporter) (*Level, []int32, kclique.Stats, error) {
	return SeedFromK(g, k, workers, r)
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

// seedShard is one vertex shard's part of a seed level: its blocks, the
// maximal k-cliques it found (held for the in-order merge when the seed
// is sharded), its k-clique counters and the worker that built it.
type seedShard struct {
	blocks  []Block
	maximal []clique.Clique
	st      kclique.Stats
	worker  int32
}

// seedAt builds the level at size k: from the edge list at k = 2, with
// the k-clique enumerator (prepared once, shared by every shard) above.
func seedAt(ctx context.Context, g graph.Interface, k, workers int, r clique.Reporter, gov *membudget.Governor) (*Level, []int32, kclique.Stats, error) {
	var p *kclique.Prepared
	if k > 2 {
		p = kclique.Prepare(g, k)
		gov.Charge(p.Bytes())
		defer gov.Release(p.Bytes())
	}
	shards := min(max(workers, 1)*seedShardsPerWorker, g.N())
	if workers <= 1 || shards <= 1 {
		var o seedShard
		var emit func(clique.Clique)
		if r != nil {
			emit = r.Emit
		}
		if err := o.run(ctx, g, p, k, 0, 1, emit, gov); err != nil {
			return nil, nil, o.st, fmt.Errorf("core: seeding at k=%d: %w", k, err)
		}
		return &Level{K: k, Sub: o.blocks}, make([]int32, len(o.blocks)), o.st, nil
	}

	outs := make([]seedShard, shards)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for ctx.Err() == nil {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				o := &outs[s]
				o.worker = w
				var emit func(clique.Clique)
				if r != nil {
					emit = func(c clique.Clique) { o.maximal = append(o.maximal, c.Clone()) }
				}
				_ = o.run(ctx, g, p, k, s, shards, emit, gov) // a canceled shard's error is ctx's, reported below
			}
		}(int32(w))
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, kclique.Stats{}, fmt.Errorf("core: seeding at k=%d: %w", k, err)
	}

	lvl := &Level{K: k}
	var homes []int32
	var st kclique.Stats
	for s := range outs {
		o := &outs[s]
		for _, c := range o.maximal {
			r.Emit(c)
		}
		lvl.Sub = append(lvl.Sub, o.blocks...)
		for range o.blocks {
			homes = append(homes, o.worker)
		}
		st.Maximal += o.st.Maximal
		st.Candidates += o.st.Candidates
		st.Groups += o.st.Groups
		st.SearchNodes += o.st.SearchNodes
		st.BoundaryCuts += o.st.BoundaryCuts
	}
	st.PeeledAway = outs[0].st.PeeledAway // identical in every shard
	return lvl, homes, st, nil
}

// run builds shard s of shards into o: from the edges of the shard's
// anchor vertices when p is nil, else from the k-cliques whose smallest
// vertex lies in the shard, handing the maximal ones to emit (nil: nobody
// listens) and charging the search's scratch to gov while it runs.
// Anchor and rank ranges partition the level, so concatenating shard
// outputs in shard order reproduces the one-shard record stream.
func (o *seedShard) run(ctx context.Context, g graph.Interface, p *kclique.Prepared, k, s, shards int, emit func(clique.Clique), gov *membudget.Governor) error {
	if p == nil {
		n := g.N()
		o.blocks = seedEdgeRange(g, n*s/shards, n*(s+1)/shards)
		return nil
	}
	seed := groupSink{sink: newBlockSink(nil)}
	var buf clique.Clique
	var err error
	o.st, err = p.Enumerate(ctx, kclique.Options{
		K:      k,
		Shard:  s,
		Shards: shards,
		Gov:    gov,
		OnGroup: func(gr kclique.Group) {
			if emit != nil {
				for _, t := range gr.MaximalTails {
					buf = append(append(buf[:0], gr.Prefix...), t)
					emit(buf)
				}
			}
			seed.add(gr)
		},
	})
	o.blocks = seed.sink.finish(0)
	return err
}

// seedEdgeRange builds the blocks of the 2-clique sub-lists whose anchor
// vertex lies in [from, to): one sub-list per vertex a, its tails the
// neighbors of a greater than a.
// Sub-lists with fewer than two tails are dropped (they cannot join
// pairs), which is the paper's N[2] <= n-2, M[2] = m initialization.
// Every 2-clique sub-list starts a run — its one-vertex prefix shares
// nothing with its neighbour's — so ranges cut the stream anywhere.
func seedEdgeRange(g graph.Interface, from, to int) []Block {
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
		sink.append(nil, uint32(a), tails)
	}
	return sink.finish(0)
}

// groupSink turns k-clique groups into the records of a seed level.
type groupSink struct {
	sink          blockSink
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
	s.sink.appendRecord(s.prefix, s.tails)
}
