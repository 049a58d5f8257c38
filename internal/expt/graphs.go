// Package expt is the experiment harness: it builds the synthetic
// stand-ins for the paper's three microarray graphs (Build, SpecA/B/C)
// and regenerates the tables and figures of the paper's evaluation
// section — nothing else lives here.  One function per artefact, one
// cmd/repro experiment per function:
//
//	MaxCliqueBounds  Section 3, "maximum clique size 17, 110 and 28"   repro maxclique
//	Table1           Table 1, Kose RAM vs the Clique Enumerator         repro table1
//	Fig5             Figure 5, run time vs processors per Init_K        repro fig5
//	Fig6             Figure 6, absolute and relative speedup            repro fig6
//	Fig7             Figure 7, 256-processor speedup vs sequential time repro fig7
//	Fig8             Figure 8, per-processor load balance               repro fig8
//	Fig9             Figure 9, memory per clique size                   repro fig9
//	Blowup           Section 3, graph B exhausting memory               repro blowup
//
// CollectFamily gathers the traces Figures 6 and 7 share.  Comparisons
// the paper does not print (storage tiers, graph
// representations, budgets) are measured by benchmark/ and tabulated in
// DESIGN.md and README.md, not here.
package expt

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// GraphSpec describes one of the paper's input graphs.
type GraphSpec struct {
	Name     string
	N        int     // vertices (probe sets / genes)
	M        int     // edges after thresholding
	Omega    int     // maximum clique size the paper reports
	Density  float64 // as the paper quotes it (fraction, not percent)
	Comments string
}

// The paper's three graphs (Section 3):
//
//	A: mouse-brain U74Av2 data, 12,422 vertices, 6,151 edges (0.008%), ω = 17
//	B: same probe sets, lower threshold, 229,297 edges (0.3%), ω = 110
//	C: myogenic differentiation data, 2,895 vertices, 10,914 edges (0.2%), ω = 28
var (
	SpecA = GraphSpec{Name: "A (brain, sparse)", N: 12422, M: 6151, Omega: 17, Density: 0.00008}
	SpecB = GraphSpec{Name: "B (brain, dense)", N: 12422, M: 229297, Omega: 110, Density: 0.003}
	SpecC = GraphSpec{Name: "C (myogenic)", N: 2895, M: 10914, Omega: 28, Density: 0.002}
)

// Scale reduces a spec for hosts and time budgets below the paper's
// 256-processor, 2 TB platform: vertex and edge counts shrink linearly,
// the maximum clique size shrinks proportionally (it is the exponent of
// the workload, so this is the knob that matters), never below 8.
func (s GraphSpec) Scale(f float64) GraphSpec {
	if f >= 1 {
		return s
	}
	if f <= 0 {
		panic(fmt.Sprintf("expt: scale %v", f))
	}
	out := s
	out.Name = fmt.Sprintf("%s x%.2f", s.Name, f)
	out.N = max(16, int(float64(s.N)*f))
	out.Omega = max(8, int(float64(s.Omega)*f+0.5))
	out.M = max(out.Omega*(out.Omega-1)/2+8, int(float64(s.M)*f))
	return out
}

// Build synthesizes a graph matching the spec: a planted maximum clique
// of exactly Omega vertices, a ladder of smaller overlapping co-expression
// modules (the overlap structure that gives the paper's graphs their
// clique-rich neighborhoods), and random background edges to reach M
// exactly.  The construction mirrors what thresholded rank-correlation
// matrices of modular expression data look like; see DESIGN.md §9 for the
// substitution argument and package microarray for the full pipeline
// demonstrated end-to-end at small scale.
func Build(spec GraphSpec, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	modules := moduleLadder(spec)

	// Count edges the modules will surely contribute (ignoring overlap
	// double-counts, which PlantedGraph's AddEdge dedups): plant first,
	// count, then add background to hit M.
	g := graph.PlantedGraph(rng, spec.N, modules, 0)
	if g.M() > spec.M {
		panic(fmt.Sprintf("expt: %s modules need %d edges > target %d",
			spec.Name, g.M(), spec.M))
	}
	background := spec.M - g.M()
	for added := 0; added < background; {
		u := rng.Intn(spec.N)
		v := rng.Intn(spec.N)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v)
		added++
	}
	return g
}

// moduleLadder returns the planted module structure for a spec: the
// maximum clique first, then progressively smaller modules overlapping
// their predecessor, to create the overlapping-clique neighborhoods that
// drive candidate growth in the mid-size levels (Figure 9's hump).
func moduleLadder(spec GraphSpec) []graph.PlantedCliqueSpec {
	ladder := []graph.PlantedCliqueSpec{{Size: spec.Omega}}
	size := spec.Omega * 3 / 4
	for size >= 6 && len(ladder) < 6 {
		ladder = append(ladder, graph.PlantedCliqueSpec{
			Size:    size,
			Overlap: size / 3,
		})
		size = size * 3 / 4
	}
	// A couple of disjoint mid-size modules for breadth.
	if spec.Omega >= 12 {
		ladder = append(ladder,
			graph.PlantedCliqueSpec{Size: spec.Omega / 2},
			graph.PlantedCliqueSpec{Size: spec.Omega / 3},
		)
	}
	return ladder
}
