package kclique

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/testgraph"
)

// Enumerate finds every k-clique of g and reports them through
// opts.OnGroup.  It returns run statistics.
func Enumerate(g graph.Interface, opts Options) Stats {
	st, _ := Prepare(g, opts.K).Enumerate(context.Background(), opts)
	return st
}

// enumerateUnpeeled is Enumerate without the (k-1)-core peel: every
// vertex survives.
func enumerateUnpeeled(g graph.Interface, opts Options) Stats {
	alive := bitset.New(g.N())
	alive.SetAll()
	st, _ := (&Prepared{g: g, alive: alive, survivors: g.N(), k: opts.K}).Enumerate(context.Background(), opts)
	return st
}

// collectAll returns every k-clique of g, split into maximal and
// non-maximal, each in canonical order.
func collectAll(g graph.Interface, k int) (maximal, candidates []clique.Clique) {
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

func TestKTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K=1 did not panic")
		}
	}()
	Enumerate(graph.New(3), Options{K: 1})
}

func TestTriangleLevels(t *testing.T) {
	g := graph.New(4)
	graph.PlantClique(g, []int{0, 1, 2})
	g.AddEdge(2, 3)

	// k=2: edges {0,1},{0,2},{1,2},{2,3}; only {2,3} is maximal.
	max2, cand2 := collectAll(g, 2)
	if len(max2) != 1 || max2[0].Key() != "2,3" {
		t.Errorf("maximal 2-cliques = %v", max2)
	}
	if len(cand2) != 3 {
		t.Errorf("candidate 2-cliques = %v", cand2)
	}

	// k=3: only {0,1,2}, maximal.
	max3, cand3 := collectAll(g, 3)
	if len(max3) != 1 || max3[0].Key() != "0,1,2" {
		t.Errorf("maximal 3-cliques = %v", max3)
	}
	if len(cand3) != 0 {
		t.Errorf("candidate 3-cliques = %v", cand3)
	}

	// k=4: none.
	max4, cand4 := collectAll(g, 4)
	if len(max4)+len(cand4) != 0 {
		t.Errorf("4-cliques = %v %v", max4, cand4)
	}
}

func TestAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(12)
		g := graph.RandomGNP(rng, n, 0.5)
		for k := 2; k <= 5; k++ {
			maximal, cands := collectAll(g, k)
			all := append(append([]clique.Clique{}, maximal...), cands...)
			want := clique.BruteForceKCliques(g, k)
			if ok, diff := clique.SameSets(all, want); !ok {
				t.Fatalf("trial %d k=%d: %s", trial, k, diff)
			}
			// Maximality split must match the definition.
			for _, c := range maximal {
				if !graph.IsMaximalClique(g, c) {
					t.Fatalf("trial %d k=%d: %v flagged maximal", trial, k, c)
				}
			}
			for _, c := range cands {
				if graph.IsMaximalClique(g, c) {
					t.Fatalf("trial %d k=%d: %v flagged candidate", trial, k, c)
				}
			}
		}
	}
}

func TestCanonicalOrderAndUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.PlantedGraph(rng, 40, []graph.PlantedCliqueSpec{{Size: 7}}, 60)
	var all []clique.Clique
	Enumerate(g, Options{K: 3, OnGroup: func(gr Group) {
		for _, t := range gr.CandidateTails {
			all = append(all, append(append(clique.Clique{}, gr.Prefix...), t))
		}
		for _, t := range gr.MaximalTails {
			all = append(all, append(append(clique.Clique{}, gr.Prefix...), t))
		}
	}})
	seen := map[string]bool{}
	for _, c := range all {
		if !c.Canonical() {
			t.Fatalf("non-canonical %v", c)
		}
		if seen[c.Key()] {
			t.Fatalf("duplicate %v", c)
		}
		seen[c.Key()] = true
	}
}

func TestPeelingStatsAndEquivalence(t *testing.T) {
	// A graph with a big low-degree fringe: peeling must remove it and
	// results must be unchanged.
	g := graph.New(30)
	graph.PlantClique(g, []int{0, 1, 2, 3, 4})
	for i := 5; i < 30; i++ {
		g.AddEdge(i, (i+1)%30)
	}
	stPeel := Enumerate(g, Options{K: 4})
	stNoPeel := enumerateUnpeeled(g, Options{K: 4})
	if stPeel.PeeledAway == 0 {
		t.Error("peeling removed nothing")
	}
	if stPeel.Maximal != stNoPeel.Maximal || stPeel.Candidates != stNoPeel.Candidates {
		t.Errorf("peel changed results: %+v vs %+v", stPeel, stNoPeel)
	}
	if stPeel.SearchNodes >= stNoPeel.SearchNodes {
		t.Errorf("peeling did not shrink the search: %d >= %d",
			stPeel.SearchNodes, stNoPeel.SearchNodes)
	}
}

func TestBoundaryCutFiresOnSparseGraph(t *testing.T) {
	// Disable peeling so that underfilled branches reach the boundary
	// condition |COMPSUB| + |CANDIDATES| < k.
	g := graph.New(8)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	st := enumerateUnpeeled(g, Options{K: 3})
	if st.BoundaryCuts == 0 {
		t.Error("boundary condition never fired on a path graph")
	}
	if st.Maximal != 0 && st.Candidates != 0 {
		t.Errorf("path graph has no 3-cliques: %+v", st)
	}
}

func TestTooFewVerticesAfterPeel(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	st := Enumerate(g, Options{K: 3})
	if st.Maximal+st.Candidates != 0 {
		t.Errorf("no 3-cliques exist: %+v", st)
	}
}

func TestStatsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := graph.RandomGNP(rng, 14, 0.6)
	var maximal, cands int64
	st := Enumerate(g, Options{K: 3, OnGroup: func(gr Group) {
		maximal += int64(len(gr.MaximalTails))
		cands += int64(len(gr.CandidateTails))
	}})
	if st.Maximal != maximal || st.Candidates != cands {
		t.Errorf("stats %+v disagree with delivered %d/%d", st, maximal, cands)
	}
	if st.Groups == 0 || st.SearchNodes == 0 {
		t.Errorf("counters not populated: %+v", st)
	}
}

func TestLargePlantedClique(t *testing.T) {
	// Seeding scenario from the paper: Init_K below the max clique size.
	rng := rand.New(rand.NewSource(35))
	g := graph.PlantedGraph(rng, 120, []graph.PlantedCliqueSpec{{Size: 12}}, 150)
	st := Enumerate(g, Options{K: 10})
	// Every 10-subset of the planted 12-clique is a candidate 10-clique:
	// C(12,10) = 66 of them, none maximal (all extend to the 12-clique).
	if st.Candidates < 66 {
		t.Errorf("candidates = %d, want >= 66", st.Candidates)
	}
	if st.Maximal != 0 {
		// Background edges could in principle create maximal 10-cliques,
		// but at this density they cannot.
		t.Errorf("maximal 10-cliques = %d, want 0", st.Maximal)
	}
}

func BenchmarkSeedK10Planted(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	g := graph.PlantedGraph(rng, 500, []graph.PlantedCliqueSpec{{Size: 14}}, 900)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Enumerate(g, Options{K: 10, OnGroup: func(Group) {}})
	}
}

// TestShardedEnumerationMatchesFull: concatenating shard outputs in shard
// order must reproduce the unsharded enumeration exactly — same groups,
// same order, same classification — since every k-clique lives in the
// shard of its smallest vertex.  This is the invariant the parallel
// seeder builds on.
func TestShardedEnumerationMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.PlantedGraph(rng, 70, []graph.PlantedCliqueSpec{
		{Size: 9}, {Size: 6, Overlap: 2},
	}, 150)
	type flatGroup struct {
		prefix []int
		maxT   []int
		candT  []int
	}
	collect := func(shard, shards int) ([]flatGroup, Stats) {
		var out []flatGroup
		st := Enumerate(g, Options{
			K:      4,
			Shard:  shard,
			Shards: shards,
			OnGroup: func(gr Group) {
				out = append(out, flatGroup{
					prefix: append([]int(nil), gr.Prefix...),
					maxT:   append([]int(nil), gr.MaximalTails...),
					candT:  append([]int(nil), gr.CandidateTails...),
				})
			},
		})
		return out, st
	}
	full, fullStats := collect(0, 1)
	for _, shards := range []int{2, 3, 7, 16} {
		var merged []flatGroup
		var maximal, candidates, groups int64
		for s := 0; s < shards; s++ {
			part, st := collect(s, shards)
			merged = append(merged, part...)
			maximal += st.Maximal
			candidates += st.Candidates
			groups += st.Groups
		}
		if len(merged) != len(full) {
			t.Fatalf("shards=%d: %d groups, want %d", shards, len(merged), len(full))
		}
		for i := range full {
			if !equalInts(merged[i].prefix, full[i].prefix) ||
				!equalInts(merged[i].maxT, full[i].maxT) ||
				!equalInts(merged[i].candT, full[i].candT) {
				t.Fatalf("shards=%d: group %d differs: %+v vs %+v",
					shards, i, merged[i], full[i])
			}
		}
		if maximal != fullStats.Maximal || candidates != fullStats.Candidates || groups != fullStats.Groups {
			t.Errorf("shards=%d: summed stats %d/%d/%d, want %d/%d/%d", shards,
				maximal, candidates, groups,
				fullStats.Maximal, fullStats.Candidates, fullStats.Groups)
		}
	}
}

// refGroup is one group as the definition states it: a (k-1)-clique with
// at least one common neighbour above its last vertex, the tails split by
// maximality.
type refGroup struct {
	prefix, maxT, candT []int
}

// bruteGroups lists the groups of g's k-cliques in canonical prefix
// order, from adjacency tests alone: no peel, no bitmap algebra, no
// Bron–Kerbosch.
func bruteGroups(g *graph.Graph, k int) []refGroup {
	n := g.N()
	adjAll := func(vs []int, w int) bool {
		for _, v := range vs {
			if v == w || !g.HasEdge(v, w) {
				return false
			}
		}
		return true
	}
	var out []refGroup
	var grow func(prefix []int)
	grow = func(prefix []int) {
		if len(prefix) == k-1 {
			gr := refGroup{prefix: slices.Clone(prefix)}
			for t := prefix[len(prefix)-1] + 1; t < n; t++ {
				if !adjAll(prefix, t) {
					continue
				}
				extended := append(slices.Clone(prefix), t)
				maximal := true
				for w := 0; w < n && maximal; w++ {
					maximal = !adjAll(extended, w)
				}
				if maximal {
					gr.maxT = append(gr.maxT, t)
				} else {
					gr.candT = append(gr.candT, t)
				}
			}
			if len(gr.maxT)+len(gr.candT) > 0 {
				out = append(out, gr)
			}
			return
		}
		from := 0
		if len(prefix) > 0 {
			from = prefix[len(prefix)-1] + 1
		}
		for w := from; w < n; w++ {
			if adjAll(prefix, w) {
				grow(append(prefix, w))
			}
		}
	}
	grow(nil)
	return out
}

// padded returns g with a path of extra vertices appended: degree at
// most two, so the peel removes all of it at every k >= 3.
func padded(g *graph.Graph, extra int) *graph.Graph {
	out := graph.New(g.N() + extra)
	graph.ForEachEdge(g, func(u, v int) bool { out.AddEdge(u, v); return true })
	for v := g.N() + 1; v < out.N(); v++ {
		out.AddEdge(v-1, v)
	}
	return out
}

// TestGroupsAgainstBruteForce is the seeder's differential pin: on every
// adversarial graph of the testgraph table — bare, with a short peeled
// fringe, and with a fringe several times the graph's order — for k 3..8, in every representation and cut into 1, 2, 3 and 7
// shards, the concatenated groups must be the definition's: same
// prefixes in the same order, the same maximal and candidate tails.
func TestGroupsAgainstBruteForce(t *testing.T) {
	for _, tg := range testgraph.All() {
		for _, extra := range []int{0, 10, 192} {
			dense := padded(tg.Build(), extra)
			for k := 3; k <= 8; k++ {
				want := bruteGroups(dense, k)
				for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
					g, err := graph.Convert(dense, rep)
					if err != nil {
						t.Fatal(err)
					}
					for _, shards := range []int{1, 2, 3, 7} {
						name := fmt.Sprintf("%s+%d/k=%d/%v/shards=%d", tg.Name, extra, k, rep, shards)
						var got []refGroup
						var sum Stats
						p := Prepare(g, k)
						for s := 0; s < shards; s++ {
							st, err := p.Enumerate(context.Background(), Options{K: k, Shard: s, Shards: shards,
								OnGroup: func(gr Group) {
									got = append(got, refGroup{
										prefix: slices.Clone(gr.Prefix),
										maxT:   slices.Clone(gr.MaximalTails),
										candT:  slices.Clone(gr.CandidateTails),
									})
								}})
							if err != nil {
								t.Fatal(err)
							}
							sum.Maximal += st.Maximal
							sum.Candidates += st.Candidates
							sum.Groups += st.Groups
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d groups, the definition has %d", name, len(got), len(want))
						}
						var maximal, cands int64
						for i, w := range want {
							gr := got[i]
							if !slices.Equal(gr.prefix, w.prefix) || !slices.Equal(gr.maxT, w.maxT) ||
								!slices.Equal(gr.candT, w.candT) {
								t.Fatalf("%s: group %d is %v max %v cand %v, want %v max %v cand %v", name, i,
									gr.prefix, gr.maxT, gr.candT, w.prefix, w.maxT, w.candT)
							}
							maximal += int64(len(w.maxT))
							cands += int64(len(w.candT))
						}
						if sum.Maximal != maximal || sum.Candidates != cands || sum.Groups != int64(len(want)) {
							t.Errorf("%s: stats count %d/%d/%d, delivered %d/%d/%d", name,
								sum.Maximal, sum.Candidates, sum.Groups, maximal, cands, len(want))
						}
					}
				}
			}
		}
	}
}

// TestCanceledSearchStops: a canceled context stops the search at its
// first poll with the context's error, and the groups delivered before
// it are a prefix of the full enumeration.
func TestCanceledSearchStops(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := graph.PlantedGraph(rng, 120, []graph.PlantedCliqueSpec{{Size: 12}}, 2500)
	full := Enumerate(g, Options{K: 6})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := Prepare(g, 6).Enumerate(ctx, Options{K: 6})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled search returned %v", err)
	}
	if st.SearchNodes >= full.SearchNodes || st.SearchNodes > pollNodes {
		t.Errorf("canceled search visited %d nodes (full search %d), want at most one poll interval", st.SearchNodes, full.SearchNodes)
	}
}

func TestShardOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Shard >= Shards did not panic")
		}
	}()
	Enumerate(graph.New(10), Options{K: 2, Shard: 3, Shards: 2})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
