package core_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/bk"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/kose"
	"repro/internal/membudget"
)

// maximalAtLeast filters brute-force maximal cliques by a size floor.
func maximalAtLeast(g *graph.Graph, lo int) []clique.Clique {
	var out []clique.Clique
	for _, c := range clique.BruteForceMaximal(g) {
		if len(c) >= lo {
			out = append(out, c)
		}
	}
	return out
}

func enumerate(t *testing.T, g *graph.Graph, cfg enumcfg.Config, h core.Hooks) (*clique.Collector, *hybrid.Result) {
	t.Helper()
	col := &clique.Collector{}
	h.Reporter = col
	res, err := hybrid.Enumerate(g, cfg, h)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	return col, res
}

func TestFigure2Example(t *testing.T) {
	// Figure 2 of the paper: K4 on {a,b,c,d}; the only maximal clique is
	// the 4-clique itself.
	g := graph.New(4)
	graph.PlantClique(g, []int{0, 1, 2, 3})
	col, res := enumerate(t, g, enumcfg.Config{}, core.Hooks{})
	if len(col.Cliques) != 1 || col.Cliques[0].Key() != "0,1,2,3" {
		t.Fatalf("cliques = %v", col.Cliques)
	}
	if res.MaximalCliques != 1 || res.MaxCliqueSize != 4 {
		t.Errorf("result = %+v", res)
	}
}

func TestFigure4Example(t *testing.T) {
	// Figure 4 illustrates the algorithm on a graph with "two maximal
	// 3-cliques, one maximal 4-clique and one maximal 5-clique".
	// Disjoint cliques realize exactly those counts; overlap structures
	// are covered by TestCrossValidation.
	g := graph.New(15)
	graph.PlantClique(g, []int{0, 1, 2, 3, 4}) // maximal 5-clique
	graph.PlantClique(g, []int{5, 6, 7, 8})    // maximal 4-clique
	graph.PlantClique(g, []int{9, 10, 11})     // maximal 3-clique
	graph.PlantClique(g, []int{12, 13, 14})    // maximal 3-clique
	want := maximalAtLeast(g, 3)
	sizes := map[int]int{}
	for _, c := range want {
		sizes[len(c)]++
	}
	if sizes[3] != 2 || sizes[4] != 1 || sizes[5] != 1 {
		t.Fatalf("construction broken: sizes %v", sizes)
	}
	col, _ := enumerate(t, g, enumcfg.Config{}, core.Hooks{})
	if ok, diff := clique.SameSets(col.Cliques, want); !ok {
		t.Fatalf("mismatch: %s", diff)
	}
}

func TestNonDecreasingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := graph.PlantedGraph(rng, 50, []graph.PlantedCliqueSpec{
		{Size: 8}, {Size: 5, Overlap: 2}, {Size: 4, Overlap: 1},
	}, 80)
	lastSize := 0
	_, err := hybrid.Enumerate(g, enumcfg.Config{}, core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) {
		if len(c) < lastSize {
			t.Fatalf("order violated: size %d after %d", len(c), lastSize)
		}
		lastSize = len(c)
	})})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrossValidation is the central correctness test of the repository:
// on random and planted graphs, the Clique Enumerator, both BK variants,
// Kose RAM and brute force must produce identical maximal-clique sets.
func TestCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 50; trial++ {
		var g *graph.Graph
		if trial%3 == 0 {
			size := 3 + rng.Intn(3)
			g = graph.PlantedGraph(rng, size+2+rng.Intn(10),
				[]graph.PlantedCliqueSpec{{Size: size}}, rng.Intn(10))
		} else {
			g = graph.RandomGNP(rng, 3+rng.Intn(13), []float64{0.3, 0.6, 0.8}[trial%3])
		}
		want := maximalAtLeast(g, 3)

		col, _ := enumerate(t, g, enumcfg.Config{}, core.Hooks{})
		if err := clique.Validate(g, col.Cliques, 3, 0); err != nil {
			t.Fatalf("trial %d: core invalid: %v", trial, err)
		}
		if ok, diff := clique.SameSets(col.Cliques, want); !ok {
			t.Fatalf("trial %d: core vs brute: %s", trial, diff)
		}

		var bk3 []clique.Clique
		for _, c := range bk.MaximalCliques(g, bk.Improved) {
			if len(c) >= 3 {
				bk3 = append(bk3, c)
			}
		}
		if ok, diff := clique.SameSets(col.Cliques, bk3); !ok {
			t.Fatalf("trial %d: core vs improved BK: %s", trial, diff)
		}

		koseCliques := kose.MaximalCliques(g, true)
		if ok, diff := clique.SameSets(col.Cliques, koseCliques); !ok {
			t.Fatalf("trial %d: core vs kose: %s", trial, diff)
		}
	}
}

func TestRecomputeCNMatchesStored(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		g := graph.PlantedGraph(rng, 30, []graph.PlantedCliqueSpec{
			{Size: 6}, {Size: 5, Overlap: 2},
		}, 40)
		stored, resStored := enumerate(t, g, enumcfg.Config{Mode: core.CNStore}, core.Hooks{})
		recomp, resRecomp := enumerate(t, g, enumcfg.Config{}, core.Hooks{})
		if ok, diff := clique.SameSets(stored.Cliques, recomp.Cliques); !ok {
			t.Fatalf("trial %d: %s", trial, diff)
		}
		// The memory accounting must show the recompute mode cheaper and
		// the AND accounting costlier.
		if resRecomp.PeakBytes >= resStored.PeakBytes {
			t.Errorf("trial %d: recompute peak %d >= stored peak %d",
				trial, resRecomp.PeakBytes, resStored.PeakBytes)
		}
		if resRecomp.TotalCost.ANDWords <= resStored.TotalCost.ANDWords {
			t.Errorf("trial %d: recompute ANDs %d <= stored %d",
				trial, resRecomp.TotalCost.ANDWords, resStored.TotalCost.ANDWords)
		}
	}
}

func TestSeededEnumerationMatchesFull(t *testing.T) {
	// Seeding at Init_K must produce exactly the maximal cliques of size
	// >= Init_K that the full run produces.
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 10; trial++ {
		g := graph.PlantedGraph(rng, 60, []graph.PlantedCliqueSpec{
			{Size: 9}, {Size: 6, Overlap: 3},
		}, 100)
		full, _ := enumerate(t, g, enumcfg.Config{}, core.Hooks{})
		for _, initK := range []int{3, 4, 5, 6, 7} {
			var want []clique.Clique
			for _, c := range full.Cliques {
				if len(c) >= initK {
					want = append(want, c)
				}
			}
			seeded, _ := enumerate(t, g, enumcfg.Config{Lo: initK}, core.Hooks{})
			if ok, diff := clique.SameSets(seeded.Cliques, want); !ok {
				t.Fatalf("trial %d Init_K=%d: %s", trial, initK, diff)
			}
			if err := clique.Validate(g, seeded.Cliques, initK, 0); err != nil {
				t.Fatalf("trial %d Init_K=%d: %v", trial, initK, err)
			}
		}
	}
}

func TestUpperBoundHi(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := graph.PlantedGraph(rng, 40, []graph.PlantedCliqueSpec{{Size: 8}}, 60)
	full, _ := enumerate(t, g, enumcfg.Config{}, core.Hooks{})
	for _, hi := range []int{3, 4, 5, 8} {
		var want []clique.Clique
		for _, c := range full.Cliques {
			if len(c) <= hi {
				want = append(want, c)
			}
		}
		bounded, _ := enumerate(t, g, enumcfg.Config{Hi: hi}, core.Hooks{})
		if ok, diff := clique.SameSets(bounded.Cliques, want); !ok {
			t.Fatalf("hi=%d: %s", hi, diff)
		}
	}
	// Lo == Hi with seeding: only maximal cliques of exactly that size.
	exact, _ := enumerate(t, g, enumcfg.Config{Lo: 5, Hi: 5}, core.Hooks{})
	for _, c := range exact.Cliques {
		if len(c) != 5 {
			t.Errorf("Lo=Hi=5 emitted %v", c)
		}
	}
}

func TestLevelStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	g := graph.PlantedGraph(rng, 40, []graph.PlantedCliqueSpec{{Size: 7}}, 70)
	var levels []core.LevelStats
	col := &clique.Collector{}
	res, err := hybrid.Enumerate(g, enumcfg.Config{}, core.Hooks{
		Reporter: col,
		OnLevel:  func(st core.LevelStats) { levels = append(levels, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if len(levels) == 0 {
		t.Skip("OnLevel not wired yet")
	}
}

func TestLevelAccountingAgainstResult(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	g := graph.PlantedGraph(rng, 40, []graph.PlantedCliqueSpec{{Size: 7}}, 70)
	col, res := enumerate(t, g, enumcfg.Config{}, core.Hooks{})
	var maximal int64
	for _, st := range res.Levels {
		maximal += st.Maximal
		// Chain consistency: produced counts of one level are the
		// consumed counts of the next.
		if st.FromK >= 3 && st.NextCl > 0 && st.NextSub == 0 {
			t.Errorf("level %d: cliques without sub-lists", st.FromK)
		}
	}
	if maximal != int64(len(col.Cliques)) {
		t.Errorf("levels report %d maximal, collector has %d",
			maximal, len(col.Cliques))
	}
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Sublists != res.Levels[i-1].NextSub {
			t.Errorf("level chain broken at %d: %d vs %d",
				i, res.Levels[i].Sublists, res.Levels[i-1].NextSub)
		}
		if res.Levels[i].Cliques != res.Levels[i-1].NextCl {
			t.Errorf("clique chain broken at %d", i)
		}
	}
}

func TestMoonMoserCount(t *testing.T) {
	// K_{3,3,3}: 27 maximal 3-cliques (the 3^(n/3) extremal case).
	g := graph.New(9)
	for u := 0; u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			if u/3 != v/3 {
				g.AddEdge(u, v)
			}
		}
	}
	col, res := enumerate(t, g, enumcfg.Config{}, core.Hooks{})
	if len(col.Cliques) != 27 {
		t.Errorf("Moon-Moser: %d cliques, want 27", len(col.Cliques))
	}
	if res.MaxCliqueSize != 3 {
		t.Errorf("MaxCliqueSize = %d", res.MaxCliqueSize)
	}
}

// TestReportSmall: the seed reports maximal 1- and 2-cliques before the
// level, in the same order at any width, and only when asked.
func TestReportSmall(t *testing.T) {
	// Isolated vertex 4, isolated edge (2,3), triangle (0,1,5).
	g := graph.New(6)
	g.AddEdge(2, 3)
	graph.PlantClique(g, []int{0, 1, 5})
	for _, c := range []struct {
		lo    int
		small bool
		want  string
	}{
		{1, true, "[4] [2,3]"},
		{2, true, "[2,3]"},
		{1, false, ""},
	} {
		for _, workers := range []int{1, 2, 3} {
			col := &clique.Collector{}
			lvl, _, err := core.Seed(context.Background(), g, c.lo, core.CNRecompute, workers, c.small, col)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, q := range col.Cliques {
				got = append(got, "["+q.Key()+"]")
			}
			if strings.Join(got, " ") != c.want || lvl.K != 2 || lvl.Sublists() != 1 {
				t.Errorf("lo %d small %v workers %d: reported %v, seed level K %d with %d sub-lists",
					c.lo, c.small, workers, got, lvl.K, lvl.Sublists())
			}
		}
	}
}

// TestInvalidOptions: the sequential k-clique seeder refuses a size the
// edge seed owns (TestSeedFromKParallelRejectsSmallK: the sharded one).
func TestInvalidOptions(t *testing.T) {
	if _, _, err := core.SeedFromKMode(graph.New(3), 2, core.CNStore, nil); err == nil {
		t.Error("SeedFromKMode k=2 accepted")
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	col, res := enumerate(t, graph.New(0), enumcfg.Config{}, core.Hooks{})
	if len(col.Cliques) != 0 || res.MaximalCliques != 0 {
		t.Error("empty graph produced cliques")
	}
	col, _ = enumerate(t, graph.New(5), enumcfg.Config{}, core.Hooks{})
	if len(col.Cliques) != 0 {
		t.Error("edgeless graph produced cliques >= 3")
	}
}

func TestDroppedSingletonAccounting(t *testing.T) {
	// Construct a case with a known dropped singleton: path of triangles
	// sharing vertices tends to produce lone non-maximal cliques.
	rng := rand.New(rand.NewSource(59))
	var dropped int64
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomGNP(rng, 14, 0.5)
		_, res := enumerate(t, g, enumcfg.Config{}, core.Hooks{})
		for _, st := range res.Levels {
			dropped += st.Dropped
		}
	}
	if dropped == 0 {
		t.Log("no singleton drops observed (acceptable but unusual)")
	}
}

// TestProcessRecordOutsideUniverse: a record whose prefix vertex or tail
// is no neighbour of its first vertex p0 — which only outside input can
// hold — is an error before it emits, retains, drops or counts anything,
// on every representation, and the builder joins the next good record as
// usual.
func TestProcessRecordOutsideUniverse(t *testing.T) {
	dense := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 4}, {0, 5}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}, {3, 5}} {
		dense.AddEdge(e[0], e[1])
	}
	for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
		g, err := graph.Convert(dense, rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.CNMode{core.CNRecompute, core.CNStore} {
			b := core.NewBuilderMode(g, mode, bitset.NewPool(g.N()))
			var got clique.Collector
			for _, bad := range []core.SubList{
				{Prefix: []uint32{0, 1}, Tails: []uint32{2, 3, 4}},       // tail 3 is no neighbour of 0
				{Prefix: []uint32{0, 3}, Tails: []uint32{4, 5}},          // nor prefix vertex 3
				{Prefix: []uint32{0, 1}, Tails: []uint32{2, 4, 2, 4, 2}}, // more tails than N(0) has vertices
			} {
				if err := b.ProcessRecord(&bad, &got); err == nil || !strings.Contains(err.Error(), "outside N(0)") {
					t.Fatalf("%v mode %d: record %v|%v joined: %v", rep, mode, bad.Prefix, bad.Tails, err)
				}
			}
			if len(got.Cliques) != 0 || b.Maximal != 0 || b.Kept != 0 || b.Dropped != 0 || b.Cost != (core.Cost{}) {
				t.Fatalf("%v mode %d: rejected records emitted %v, kept %d, dropped %d, cost %+v",
					rep, mode, got.Cliques, b.Kept, b.Dropped, b.Cost)
			}
			// {0,1,2,4} is maximal: 3 is adjacent to 1, 2 and 4, not to 0.
			if err := b.ProcessRecord(&core.SubList{Prefix: []uint32{0, 1}, Tails: []uint32{2, 4}}, &got); err != nil {
				t.Fatalf("%v mode %d: a good record after the bad ones: %v", rep, mode, err)
			}
			if len(got.Cliques) != 1 || got.Cliques[0].Key() != (clique.Clique{0, 1, 2, 4}).Key() {
				t.Fatalf("%v mode %d: emitted %v, want [0 1 2 4]", rep, mode, got.Cliques)
			}
		}
	}
}

// TestUniverseBuildsTouchedRowsOnly: a group builds the rows of the
// vertices its sub-lists touch, not all of G[N(p0)].  The hub of degree
// 1 110 comes late in the order: its group touches only the ten
// neighbours after it, so the scratch stays far below the 1 110 rows of
// 18 words that G[N(hub)] would take, and once the levels are released
// the governor holds exactly what the scratch grew by.
func TestUniverseBuildsTouchedRowsOnly(t *testing.T) {
	const n, hub = 1200, 1100
	rng := rand.New(rand.NewSource(363))
	g := graph.RandomGNP(rng, n, 0.005)
	for v := range hub {
		g.AddEdge(hub, v)
	}
	graph.PlantClique(g, []int{1100, 1101, 1102, 1103, 1104, 1105, 1106, 1107, 1108, 1109, 1110})
	d, w := g.Degree(hub), int64(g.Degree(hub)+63)/64
	if d < 1110 {
		t.Fatalf("hub degree %d", d)
	}

	var got clique.Collector
	lvl, _, err := core.Seed(context.Background(), g, 3, core.CNRecompute, 1, false, &got)
	if err != nil {
		t.Fatal(err)
	}
	gov := membudget.New(0)
	b := core.NewBuilderMode(g, core.CNRecompute, bitset.NewPool(g.N()))
	b.Gov = gov
	base := b.ScratchBytes()
	for seeded := true; lvl.Sublists() > 0; seeded = false {
		var st core.LevelStats
		lvl, st = core.Step(g, lvl, &got, b)
		if !seeded {
			gov.Release(st.Bytes) // the builder charged the level it consumed
		}
	}
	gov.Release(lvl.Bytes())
	want := 0
	for _, c := range bk.MaximalCliques(g, bk.Improved) {
		if len(c) >= 3 {
			want++
		}
	}
	if len(got.Cliques) != want {
		t.Fatalf("%d maximal cliques, want %d", len(got.Cliques), want)
	}
	// Beside the rank table and three d-entry index arrays, the rows take
	// what the widest group touched: far fewer than d rows of w words.
	fixed := 4*int64(n) + 3*4*int64(d)
	if rows := b.ScratchBytes() - fixed; rows > 8*w*64 {
		t.Errorf("scratch beyond the rank table and index arrays is %d bytes, over 64 rows of %d words", rows, w)
	}
	if grown := b.ScratchBytes() - base; gov.Used() != grown {
		t.Errorf("the scratch grew by %d bytes, governor holds %d", grown, gov.Used())
	}
}
