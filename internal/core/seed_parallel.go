package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/kclique"
)

// seedShardsPerWorker oversubscribes the seed phase: each worker is fed
// several contiguous vertex shards from a shared counter, so the skew of
// low-index shards (whose candidate sets are largest) self-balances
// without a static assignment.
const seedShardsPerWorker = 4

// SeedFromEdgesParallel builds the size-2 seed level with `workers`
// goroutines, each claiming contiguous anchor-vertex shards dynamically.
// Shard outputs are concatenated in shard order, so the returned level
// holds SeedFromEdgesMode's record stream, cut into at least one block
// per shard.  The second return value records the creator worker of
// every block — the initial ownership the Affinity strategy schedules by
// (previously seeding left ownership unset and the first generation
// level silently fell back to a contiguous split).
func SeedFromEdgesParallel(g graph.Interface, mode CNMode, workers int) (*Level, []int32) {
	n := g.N()
	if workers < 1 {
		workers = 1
	}
	shards := workers * seedShardsPerWorker
	if shards > n {
		shards = n
	}
	if workers == 1 || shards <= 1 {
		lvl := SeedFromEdgesMode(g, mode)
		return lvl, make([]int32, len(lvl.Sub))
	}

	type shardOut struct {
		blocks []Block
		worker int32
	}
	outs := make([]shardOut, shards)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for {
				s := int(atomic.AddInt64(&next, 1)) - 1
				if s >= shards {
					return
				}
				from, to := n*s/shards, n*(s+1)/shards
				outs[s] = shardOut{blocks: seedEdgeRange(g, mode, from, to), worker: w}
			}
		}(int32(w))
	}
	wg.Wait()

	lvl := &Level{K: 2}
	var homes []int32
	for _, o := range outs {
		lvl.Sub = append(lvl.Sub, o.blocks...)
		for range o.blocks {
			homes = append(homes, o.worker)
		}
	}
	return lvl, homes
}

// SeedFromKParallel seeds the enumeration at size k >= 3 with `workers`
// goroutines running sharded k-clique enumerations (kclique
// Options.Shard/Shards).  Blocks and maximal k-clique reports are merged
// in shard order, so output order and content match SeedFromKMode exactly
// (a shard starts where the smallest vertex changes, which starts a run
// in the sequential seed too); the returned homes record each block's
// creator worker for the Affinity strategy.
func SeedFromKParallel(g graph.Interface, k int, mode CNMode, workers int, r clique.Reporter) (*Level, []int32, kclique.Stats, error) {
	return SeedFromKContext(context.Background(), g, k, mode, workers, r)
}

// SeedFromKContext is SeedFromKParallel under a context: every shard's
// search polls ctx, no shard starts once it is canceled, and a canceled
// seed returns no level and an error wrapping ctx.Err().
func SeedFromKContext(ctx context.Context, g graph.Interface, k int, mode CNMode, workers int, r clique.Reporter) (*Level, []int32, kclique.Stats, error) {
	if k < 3 {
		return nil, nil, kclique.Stats{}, fmt.Errorf("core: SeedFromKParallel requires k >= 3, got %d", k)
	}
	if workers < 1 {
		workers = 1
	}
	shards := workers * seedShardsPerWorker
	if shards > g.N() {
		shards = g.N()
	}
	if workers == 1 || shards <= 1 {
		lvl, st, err := seedFromK(ctx, g, k, mode, r)
		if err != nil {
			return nil, nil, st, err
		}
		return lvl, make([]int32, len(lvl.Sub)), st, nil
	}

	type shardOut struct {
		seed    groupSink
		maximal []clique.Clique
		st      kclique.Stats
		worker  int32
	}
	outs := make([]shardOut, shards)
	prepared := kclique.Prepare(g, k) // peel once, share across shards
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for ctx.Err() == nil {
				s := int(atomic.AddInt64(&next, 1)) - 1
				if s >= shards {
					return
				}
				o := &outs[s]
				o.worker = w
				o.seed = groupSink{sink: newBlockSink(nil), mode: mode}
				// A canceled shard's error is ctx's, reported below.
				o.st, _ = prepared.Enumerate(ctx, kclique.Options{
					K:      k,
					Shard:  s,
					Shards: shards,
					OnGroup: func(gr kclique.Group) {
						for _, t := range gr.MaximalTails {
							c := make(clique.Clique, 0, len(gr.Prefix)+1)
							c = append(c, gr.Prefix...)
							o.maximal = append(o.maximal, append(c, t))
						}
						o.seed.add(gr)
					},
				})
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
		if r != nil {
			for _, c := range o.maximal {
				r.Emit(c)
			}
		}
		blocks := o.seed.sink.finish(0)
		lvl.Sub = append(lvl.Sub, blocks...)
		for range blocks {
			homes = append(homes, o.worker)
		}
		st.Maximal += o.st.Maximal
		st.Candidates += o.st.Candidates
		st.Groups += o.st.Groups
		st.SearchNodes += o.st.SearchNodes
		st.BoundaryCuts += o.st.BoundaryCuts
		if s == 0 {
			st.PeeledAway = o.st.PeeledAway // identical in every shard
		}
	}
	return lvl, homes, st, nil
}
