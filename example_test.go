package repro_test

import (
	"context"
	"fmt"
	"os"

	"repro"
)

// moduleGraph builds the doctest graph: two gene modules sharing two
// genes plus overlap structure.
func moduleGraph() *repro.Graph {
	g := repro.NewGraph(7)
	for _, e := range [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // module {0,1,2,3}
		{3, 4}, {3, 5}, {4, 5}, {4, 6}, {5, 6}, {4, 2}, // overlap structure
	} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// The Enumerator facade: one entry point, backend chosen by options.
func ExampleEnumerator_Run() {
	g := moduleGraph()
	var st repro.Stats
	enum := repro.NewEnumerator(
		repro.WithBounds(3, 0),
		repro.WithWorkers(2), // parallel backend; same output order
		repro.WithStats(&st),
	)
	n, err := enum.Run(context.Background(), g, repro.ReporterFunc(func(c repro.Clique) {
		fmt.Println(c)
	}))
	if err != nil {
		panic(err)
	}
	fmt.Printf("total: %d on the %s backend\n", n, st.Backend)
	// Output:
	// [2 3 4]
	// [3 4 5]
	// [4 5 6]
	// [0 1 2 3]
	// total: 4 on the parallel backend
}

// Cliques streams owned copies — retain them freely, break to cancel.
func ExampleEnumerator_Cliques() {
	g := moduleGraph()
	var kept []repro.Clique
	for c, err := range repro.NewEnumerator(repro.WithBounds(4, 0)).Cliques(context.Background(), g) {
		if err != nil {
			panic(err)
		}
		kept = append(kept, c) // safe: yielded cliques are copies
	}
	fmt.Println(kept)
	// Output: [[0 1 2 3]]
}

// WithOutOfCore spills levels to disk — the paper's pre-Altix regime —
// behind the same facade, with identical output order.
func ExampleWithOutOfCore() {
	g := moduleGraph()
	dir, err := os.MkdirTemp("", "repro-ooc-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	var st repro.Stats
	enum := repro.NewEnumerator(
		repro.WithBounds(3, 0),
		repro.WithOutOfCore(dir, 0),
		repro.WithStats(&st),
	)
	n, err := enum.Run(context.Background(), g, repro.ReporterFunc(func(c repro.Clique) {
		fmt.Println(c)
	}))
	if err != nil {
		panic(err)
	}
	fmt.Printf("total: %d, spilled %d bytes\n", n, st.SpillBytesWritten)
	// Output:
	// [2 3 4]
	// [3 4 5]
	// [4 5 6]
	// [0 1 2 3]
	// total: 4, spilled 35 bytes
}

// Two gene modules sharing two genes: the maximal cliques are the
// modules themselves, reported smallest first.
func ExampleNewEnumerator() {
	g := moduleGraph()
	n, err := repro.NewEnumerator(repro.WithBounds(3, 0)).Run(context.Background(), g,
		repro.ReporterFunc(func(c repro.Clique) { fmt.Println(c) }))
	if err != nil {
		panic(err)
	}
	fmt.Println("total:", n)
	// Output:
	// [2 3 4]
	// [3 4 5]
	// [4 5 6]
	// [0 1 2 3]
	// total: 4
}

func ExampleMaxCliqueSize() {
	g := repro.NewGraph(5)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}} {
		g.AddEdge(e[0], e[1])
	}
	fmt.Println(repro.MaxCliqueSize(g))
	// Output: 3
}

func ExampleEnumerator_Paracliques() {
	g := repro.NewGraph(6)
	// K5 missing one edge, plus an attached vertex.
	for _, e := range [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4},
		{2, 3}, {2, 4}, {3, 5},
	} {
		g.AddEdge(e[0], e[1])
	}
	ps, err := repro.NewEnumerator().Paracliques(context.Background(), g, 0.75)
	if err != nil {
		panic(err)
	}
	fmt.Printf("paracliques: %d, first has %d vertices (core %d)\n",
		len(ps), len(ps[0].Vertices), ps[0].CoreSize)
	// Output: paracliques: 1, first has 5 vertices (core 4)
}
