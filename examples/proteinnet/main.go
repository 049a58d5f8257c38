// Proteinnet demonstrates the paper's protein-interaction workflow: given
// several noisy interaction assays (yeast two-hybrid screens have high
// false-positive rates), clean them with Boolean graph queries —
// intersection and at-least-k-of-n — and then mine the consensus network
// for protein complexes as maximal cliques.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

const proteins = 120

func main() {
	rng := rand.New(rand.NewSource(7))

	// Ground truth: two protein complexes and a shared scaffold pair.
	truth := repro.NewGraph(proteins)
	repro.PlantClique(truth, []int{0, 1, 2, 3, 4, 5})
	repro.PlantClique(truth, []int{10, 11, 12, 13})
	truth.AddEdge(4, 10)

	// Four assays: each observes every true interaction with 85%
	// sensitivity and adds false positives at random.
	assays := make([]*repro.Graph, 4)
	for i := range assays {
		a := repro.NewGraph(proteins)
		for u := 0; u < proteins; u++ {
			for v := u + 1; v < proteins; v++ {
				if truth.HasEdge(u, v) && rng.Float64() < 0.85 {
					a.AddEdge(u, v)
				}
			}
		}
		for fp := 0; fp < 60; fp++ {
			u, v := rng.Intn(proteins), rng.Intn(proteins)
			if u != v {
				a.AddEdge(u, v)
			}
		}
		assays[i] = a
		fmt.Printf("assay %d: %d interactions\n", i+1, a.M())
	}

	union := repro.Union(assays...)
	strict := repro.Intersection(assays...)
	consensus := repro.AtLeastKOfN(2, assays...)
	fmt.Printf("union: %d edges; intersection: %d; at-least-2-of-4: %d (truth: %d)\n",
		union.M(), strict.M(), consensus.M(), truth.M())

	// Complexes = maximal cliques of the consensus network.
	fmt.Println("putative complexes (maximal cliques, size >= 3):")
	enum := repro.NewEnumerator(repro.WithBounds(3, 0))
	_, err := enum.Run(context.Background(), consensus, repro.ReporterFunc(func(c repro.Clique) {
		fmt.Printf("  %v\n", []int(c))
	}))
	if err != nil {
		log.Fatal(err)
	}

	// Precision/recall of the consensus edges against truth.
	tp := 0
	for u := 0; u < proteins; u++ {
		for v := u + 1; v < proteins; v++ {
			if consensus.HasEdge(u, v) && truth.HasEdge(u, v) {
				tp++
			}
		}
	}
	fp, fn := consensus.M()-tp, truth.M()-tp
	fmt.Printf("consensus quality: %d true, %d false, %d missed\n", tp, fp, fn)
}
