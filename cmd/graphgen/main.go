// Command graphgen writes synthetic datasets: the paper's graph A/B/C
// stand-ins, random G(n,m) graphs, or a full synthetic microarray
// pipeline (expression matrix -> rank correlation -> threshold graph).
//
// Usage:
//
//	graphgen -spec C -scale 0.5 -out c.el
//	graphgen -n 1000 -m 5000 -out random.el
//	graphgen -microarray -genes 500 -conditions 80 -modules 12,8,6 -threshold 0.7 -out coexpr.el
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/microarray"
)

func main() {
	spec := flag.String("spec", "", "paper graph spec: A, B or C")
	scale := flag.Float64("scale", 1.0, "spec scale in (0,1]")
	n := flag.Int("n", 0, "vertices for G(n,m)")
	m := flag.Int("m", 0, "edges for G(n,m)")
	micro := flag.Bool("microarray", false, "generate via the expression pipeline")
	genes := flag.Int("genes", 300, "microarray: genes")
	conditions := flag.Int("conditions", 60, "microarray: conditions")
	modulesFlag := flag.String("modules", "10,7,5", "microarray: comma-separated module sizes")
	threshold := flag.Float64("threshold", 0.7, "microarray: |rho| threshold")
	matrixOut := flag.String("matrix-out", "", "microarray: also write the expression matrix as TSV")
	seed := flag.Int64("seed", 1, "RNG seed")
	out := flag.String("out", "", "output path (default stdout)")
	dimacs := flag.Bool("dimacs", false, "write DIMACS instead of edge list")
	flag.Parse()

	g, mat, err := generate(*spec, *scale, *n, *m, *micro, *genes, *conditions, *modulesFlag, *threshold, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	if *matrixOut != "" {
		if mat == nil {
			fmt.Fprintln(os.Stderr, "graphgen: -matrix-out requires -microarray")
			os.Exit(1)
		}
		f, err := os.Create(*matrixOut)
		if err == nil {
			err = microarray.WriteTSV(f, mat)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
			os.Exit(1)
		}
	}

	w := os.Stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
			os.Exit(1)
		}
		outFile = f
		w = f
	}
	if *dimacs {
		err = graph.WriteDIMACS(w, g)
	} else {
		err = graph.WriteEdgeList(w, g)
	}
	// A failed Close on the output file is a failed write (buffered data
	// may be lost); it must fail the command, not vanish in a defer.
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d vertices, %d edges (density %.4f%%)\n",
		g.N(), g.M(), 100*graph.Density(g))
}

func generate(spec string, scale float64, n, m int, micro bool,
	genes, conditions int, modulesFlag string, threshold float64, seed int64) (*graph.Graph, *microarray.Matrix, error) {
	switch {
	case spec != "":
		var s expt.GraphSpec
		switch strings.ToUpper(spec) {
		case "A":
			s = expt.SpecA
		case "B":
			s = expt.SpecB
		case "C":
			s = expt.SpecC
		default:
			return nil, nil, fmt.Errorf("unknown spec %q (want A, B or C)", spec)
		}
		return expt.Build(s.Scale(scale), seed), nil, nil

	case micro:
		rng := rand.New(rand.NewSource(seed))
		var modules []microarray.ModuleSpec
		next := 0
		for _, part := range strings.Split(modulesFlag, ",") {
			size, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || size < 2 {
				return nil, nil, fmt.Errorf("bad module size %q", part)
			}
			members := make([]int, size)
			for i := range members {
				members[i] = next
				next++
			}
			if next > genes {
				return nil, nil, fmt.Errorf("modules need %d genes, have %d", next, genes)
			}
			modules = append(modules, microarray.ModuleSpec{Genes: members, Signal: 5})
		}
		mat := microarray.Synthesize(rng, microarray.SyntheticConfig{
			Genes:      genes,
			Conditions: conditions,
			Modules:    modules,
		})
		mat.Normalize()
		return microarray.CorrelationGraph(mat, microarray.SpearmanRank, threshold), mat, nil

	case n > 0:
		return graph.RandomGNM(rand.New(rand.NewSource(seed)), n, m), nil, nil

	default:
		return nil, nil, fmt.Errorf("one of -spec, -microarray or -n/-m is required")
	}
}
