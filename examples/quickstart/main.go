// Quickstart: build a small graph, compute its maximum clique, and
// stream all maximal cliques in non-decreasing order of size — the
// paper's pipeline in its simplest form, through the repro.Enumerator
// facade.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// The overlap graph of two gene modules sharing two genes, plus a
	// loosely attached pair — the kind of structure thresholded
	// co-expression data produces.
	g := repro.NewGraph(9)
	repro.PlantClique(g, []int{0, 1, 2, 3, 4}) // module 1
	repro.PlantClique(g, []int{3, 4, 5, 6})    // module 2 (shares 3, 4)
	g.AddEdge(6, 7)
	g.AddEdge(7, 8)

	// Step 1: the upper bound — maximum clique via branch-and-bound.
	omega := repro.MaxCliqueSize(g)
	fmt.Printf("maximum clique size: %d\n", omega)

	// Step 2: stream every maximal clique of size >= 3 in non-decreasing
	// order.  Cliques yielded by the iterator are owned copies.
	var st repro.Stats
	enum := repro.NewEnumerator(
		repro.WithBounds(3, omega),
		repro.WithStats(&st),
	)
	fmt.Println("maximal cliques (non-decreasing size):")
	for c, err := range enum.Cliques(context.Background(), g) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  size %d: %v\n", len(c), []int(c))
	}
	fmt.Printf("total: %d maximal cliques, peak resident memory %d bytes (graph included)\n",
		st.MaximalCliques, st.PeakBytes)
}
