package core

import (
	"context"
	"iter"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
)

func seedTestGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.PlantedGraph(rng, 90, []graph.PlantedCliqueSpec{
		{Size: 10}, {Size: 7, Overlap: 3}, {Size: 5},
	}, 220)
}

// sameSublists asserts two levels hold identical sub-lists in identical
// order — and the identical record words, however they are cut into
// blocks.
func sameSublists(t *testing.T, got, want *Level, n int) {
	t.Helper()
	if got.K != want.K {
		t.Fatalf("K = %d, want %d", got.K, want.K)
	}
	if got.Sublists() != want.Sublists() || got.Cliques() != want.Cliques() {
		t.Fatalf("%d sub-lists / %d cliques, want %d / %d", got.Sublists(), got.Cliques(), want.Sublists(), want.Cliques())
	}
	if !slices.Equal(levelWords(got), levelWords(want)) {
		t.Fatalf("record words differ from the sequential seed's")
	}
	next, stop := iter.Pull(got.All())
	defer stop()
	i := 0
	for w := range want.All() {
		g, _ := next()
		if !slices.Equal(g.Prefix, w.Prefix) || !slices.Equal(g.Tails, w.Tails) {
			t.Fatalf("sub-list %d: %v|%v, want %v|%v", i, g.Prefix, g.Tails, w.Prefix, w.Tails)
		}
		i++
	}
}

// levelWords concatenates the level's block words: its record stream.
func levelWords(l *Level) []uint32 {
	var w []uint32
	for i := range l.Sub {
		w = append(w, l.Sub[i].Words()...)
	}
	return w
}

func checkHomes(t *testing.T, homes []int32, subs, workers int) {
	t.Helper()
	if len(homes) != subs {
		t.Fatalf("%d homes for %d sub-lists", len(homes), subs)
	}
	for i, h := range homes {
		if int(h) < 0 || int(h) >= workers {
			t.Fatalf("home[%d] = %d out of [0,%d)", i, h, workers)
		}
	}
}

func TestSeedEdgesParallelMatchesSequential(t *testing.T) {
	g := seedTestGraph(11)
	want, _, err := Seed(context.Background(), g, 2, 1, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		lvl, homes, err := Seed(context.Background(), g, 2, workers, false, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSublists(t, lvl, want, g.N())
		checkHomes(t, homes, len(lvl.Sub), workers)
	}
}

func TestSeedFromKParallelMatchesSequential(t *testing.T) {
	g := seedTestGraph(12)
	for _, k := range []int{3, 4, 6} {
		seqCol := &clique.Collector{}
		want, _, seqStats, err := SeedFromK(g, k, 1, seqCol)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 5} {
			parCol := &clique.Collector{}
			lvl, homes, st, err := SeedFromK(g, k, workers, parCol)
			if err != nil {
				t.Fatal(err)
			}
			sameSublists(t, lvl, want, g.N())
			checkHomes(t, homes, len(lvl.Sub), workers)
			// Maximal k-cliques must arrive in the identical canonical
			// order, not merely as the same set.
			if len(parCol.Cliques) != len(seqCol.Cliques) {
				t.Fatalf("k=%d workers=%d: %d maximal seeds, want %d",
					k, workers, len(parCol.Cliques), len(seqCol.Cliques))
			}
			for i := range seqCol.Cliques {
				if clique.Compare(parCol.Cliques[i], seqCol.Cliques[i]) != 0 {
					t.Fatalf("k=%d workers=%d: seed emission %d is %v, want %v",
						k, workers, i, parCol.Cliques[i], seqCol.Cliques[i])
				}
			}
			if st.Maximal != seqStats.Maximal || st.Candidates != seqStats.Candidates ||
				st.Groups != seqStats.Groups {
				t.Errorf("k=%d workers=%d: stats %+v, want counts of %+v",
					k, workers, st, seqStats)
			}
		}
	}
}

func TestSeedFromKParallelRejectsSmallK(t *testing.T) {
	g := seedTestGraph(13)
	if _, _, _, err := SeedFromK(g, 2, 4, nil); err == nil {
		t.Error("k=2 accepted")
	}
}
