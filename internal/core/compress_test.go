package core

import (
	"math/rand"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
)

// TestCompressedModeMatchesStored: the WAH-compressed bitmap mode must
// produce exactly the same maximal cliques as the dense stored mode,
// across random and planted graphs and across seed levels.
func TestCompressedModeMatchesStored(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 15; trial++ {
		g := graph.PlantedGraph(rng, 60, []graph.PlantedCliqueSpec{
			{Size: 8}, {Size: 6, Overlap: 3},
		}, 100)
		for _, lo := range []int{2, 4, 5} {
			dense := &clique.Collector{}
			if _, err := Enumerate(g, Options{Lo: lo, Mode: CNStore, Reporter: dense}); err != nil {
				t.Fatal(err)
			}
			compressed := &clique.Collector{}
			if _, err := Enumerate(g, Options{Lo: lo, Mode: CNCompress, Reporter: compressed}); err != nil {
				t.Fatal(err)
			}
			if ok, diff := clique.SameSets(dense.Cliques, compressed.Cliques); !ok {
				t.Fatalf("trial %d lo=%d: %s", trial, lo, diff)
			}
		}
	}
}

// TestCompressedModeSavesMemoryOnSparseGraphs: on a genome-scale sparse
// graph the compressed bitmaps must undercut the dense formula bytes —
// the compression-rate claim of the paper's conclusions.
func TestCompressedModeSavesMemoryOnSparseGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	// 4,000 vertices, one 12-module and sparse noise: dense bitmaps cost
	// 500 bytes each; common-neighbor sets are tiny.
	g := graph.PlantedGraph(rng, 4000, []graph.PlantedCliqueSpec{{Size: 12}}, 2500)
	dense, err := Enumerate(g, Options{Mode: CNStore})
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := Enumerate(g, Options{Mode: CNCompress})
	if err != nil {
		t.Fatal(err)
	}
	if compressed.MaximalCliques != dense.MaximalCliques {
		t.Fatalf("clique counts differ: %d vs %d",
			compressed.MaximalCliques, dense.MaximalCliques)
	}
	if compressed.PeakBytes >= dense.PeakBytes {
		t.Errorf("compressed peak %d >= dense peak %d",
			compressed.PeakBytes, dense.PeakBytes)
	}
	ratio := float64(dense.PeakBytes) / float64(compressed.PeakBytes)
	if ratio < 1.5 {
		t.Errorf("compression ratio %.2f on sparse graph, want >= 1.5", ratio)
	}
	t.Logf("peak bytes: dense %d, compressed %d (%.1fx)",
		dense.PeakBytes, compressed.PeakBytes, ratio)
}

func TestUnknownCNModeRejected(t *testing.T) {
	g := graph.New(3)
	for _, mode := range []CNMode{CNRecompute - 1, CNCompress + 1} {
		if _, err := Enumerate(g, Options{Mode: mode}); err == nil {
			t.Fatalf("CN mode %d accepted", mode)
		}
	}
}

// TestAllThreeModesAgreeOnFigure4 exercises the three bitmap modes on a
// deterministic structure.
func TestAllThreeModesAgreeOnFigure4(t *testing.T) {
	g := graph.New(15)
	graph.PlantClique(g, []int{0, 1, 2, 3, 4})
	graph.PlantClique(g, []int{5, 6, 7, 8})
	graph.PlantClique(g, []int{9, 10, 11})
	graph.PlantClique(g, []int{12, 13, 14})
	var results [][]clique.Clique
	for _, opts := range []Options{
		{Mode: CNStore},
		{Mode: CNRecompute},
		{Mode: CNCompress},
	} {
		col := &clique.Collector{}
		opts.Reporter = col
		if _, err := Enumerate(g, opts); err != nil {
			t.Fatal(err)
		}
		col.Sort()
		results = append(results, col.Cliques)
	}
	for i := 1; i < len(results); i++ {
		if ok, diff := clique.SameSets(results[0], results[i]); !ok {
			t.Fatalf("mode %d: %s", i, diff)
		}
	}
}
