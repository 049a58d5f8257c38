// Package microarray synthesizes gene-expression datasets and turns them
// into correlation graphs, reproducing the data pipeline of Zhang et al.
// (SC 2005): "graphs ... generated from raw microarray data after
// normalization, pairwise rank coefficient calculation, and filtering
// using threshold".
//
// The paper's inputs — Affymetrix U74Av2 mouse-brain data (12,422 probe
// sets) and a 2,895-gene myogenic-differentiation dataset — are not
// redistributable, so this package builds the closest synthetic
// equivalent: expression matrices with planted co-expression modules
// (groups of genes driven by shared latent factors) over a noisy
// background.  After rank-correlation and thresholding, each planted
// module becomes a clique, overlapping modules produce the dense clique
// neighborhoods that stress the enumerator, and background genes
// contribute the sparse noise edges.  See DESIGN.md §9 for the
// substitution argument.
package microarray

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/stats"
)

// Matrix is a genes x conditions expression matrix.
type Matrix struct {
	Genes      int
	Conditions int
	Data       [][]float64 // Data[g][c]
	Names      []string    // optional probe-set IDs, len Genes
}

// NewMatrix allocates a zero expression matrix.
func NewMatrix(genes, conditions int) *Matrix {
	if genes < 0 || conditions < 0 {
		panic("microarray: negative matrix dimension")
	}
	data := make([][]float64, genes)
	backing := make([]float64, genes*conditions)
	for g := range data {
		data[g], backing = backing[:conditions:conditions], backing[conditions:]
	}
	return &Matrix{Genes: genes, Conditions: conditions, Data: data}
}

// ModuleSpec describes one planted co-expression module.
type ModuleSpec struct {
	Genes   []int   // member gene indices
	Signal  float64 // latent factor loading; higher = tighter correlation
	Terse   bool    // if true, the module factor affects only half the conditions
	Inverse int     // number of members loaded with negative sign (anti-correlated)
}

// SyntheticConfig drives Synthesize.
type SyntheticConfig struct {
	Genes      int
	Conditions int
	Modules    []ModuleSpec
	Noise      float64 // per-gene independent noise sigma (default 1.0)
}

// Synthesize builds an expression matrix: every gene gets independent
// Gaussian noise; module members additionally follow their module's latent
// factor with loading Signal.  With Signal >> Noise, intra-module Spearman
// correlations approach 1 and survive any reasonable threshold.
func Synthesize(rng *rand.Rand, cfg SyntheticConfig) *Matrix {
	noise := cfg.Noise
	if noise == 0 {
		noise = 1.0
	}
	m := NewMatrix(cfg.Genes, cfg.Conditions)
	for g := 0; g < cfg.Genes; g++ {
		for c := 0; c < cfg.Conditions; c++ {
			m.Data[g][c] = rng.NormFloat64() * noise
		}
	}
	for mi, mod := range cfg.Modules {
		factor := make([]float64, cfg.Conditions)
		for c := range factor {
			factor[c] = rng.NormFloat64()
		}
		span := cfg.Conditions
		if mod.Terse {
			span = cfg.Conditions / 2
		}
		for gi, g := range mod.Genes {
			if g < 0 || g >= cfg.Genes {
				panic(fmt.Sprintf("microarray: module %d gene %d out of range", mi, g))
			}
			sign := 1.0
			if gi < mod.Inverse {
				sign = -1.0
			}
			for c := 0; c < span; c++ {
				m.Data[g][c] += sign * mod.Signal * factor[c]
			}
		}
	}
	return m
}

// Normalize z-normalizes every gene row in place (zero mean, unit
// variance), the standard first step before correlation analysis.
func (m *Matrix) Normalize() {
	for g := 0; g < m.Genes; g++ {
		copy(m.Data[g], stats.ZNormalize(m.Data[g]))
	}
}

// CorrelationMethod selects the pairwise coefficient.
type CorrelationMethod int

const (
	// SpearmanRank is the paper's "pairwise rank coefficient".
	SpearmanRank CorrelationMethod = iota
	// PearsonProduct is the plain product-moment alternative.
	PearsonProduct
)

// CorrelationGraph computes all pairwise coefficients and returns the
// dense graph with an edge wherever |r| >= threshold.  The computation
// is parallelized over gene pairs; for SpearmanRank the rank transform
// is hoisted out of the pair loop, so the cost is one rank pass plus one
// Pearson kernel per pair.
func CorrelationGraph(m *Matrix, method CorrelationMethod, threshold float64) *graph.Graph {
	g, err := CorrelationGraphRep(m, method, threshold, graph.Dense)
	if err != nil {
		// Gene indices are generated in range; Dense freezing cannot fail.
		panic(err)
	}
	return g.(*graph.Graph)
}

// CorrelationGraphRep is CorrelationGraph with an explicit adjacency
// representation (graph.Auto selects from the thresholded density, so
// genome-scale sparse correlation graphs come back CSR without ever
// materializing the dense bitmap index).
func CorrelationGraphRep(m *Matrix, method CorrelationMethod, threshold float64, rep graph.Representation) (graph.Interface, error) {
	rows := m.Data
	if method == SpearmanRank {
		rows = make([][]float64, m.Genes)
		for g := 0; g < m.Genes; g++ {
			rows[g] = stats.Ranks(m.Data[g])
		}
	}
	b := graph.NewBuilder(m.Genes).WithRepresentation(rep)
	if m.Names != nil {
		for i, name := range m.Names {
			if err := b.SetName(i, name); err != nil {
				return nil, err
			}
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > m.Genes {
		workers = m.Genes
	}
	if workers < 1 {
		workers = 1
	}
	type edge struct{ u, v int }
	results := make(chan []edge, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []edge
			// Strided rows balance the triangular pair loop.
			for u := w; u < m.Genes; u += workers {
				for v := u + 1; v < m.Genes; v++ {
					r := stats.Pearson(rows[u], rows[v])
					if r >= threshold || -r >= threshold {
						local = append(local, edge{u, v})
					}
				}
			}
			results <- local
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	for local := range results {
		for _, e := range local {
			if err := b.AddEdge(e.u, e.v); err != nil {
				return nil, err
			}
		}
	}
	return b.Freeze()
}

// ThresholdForEdgeCount returns the smallest |r| threshold that keeps at
// most maxEdges edges, by computing all pairwise coefficients and taking
// the appropriate order statistic.  The paper picks thresholds that yield
// target densities (0.008%, 0.2%, 0.3%); this utility automates that.
func ThresholdForEdgeCount(m *Matrix, method CorrelationMethod, maxEdges int) float64 {
	rows := m.Data
	if method == SpearmanRank {
		rows = make([][]float64, m.Genes)
		for g := 0; g < m.Genes; g++ {
			rows[g] = stats.Ranks(m.Data[g])
		}
	}
	var all []float64
	for u := 0; u < m.Genes; u++ {
		for v := u + 1; v < m.Genes; v++ {
			r := stats.Pearson(rows[u], rows[v])
			if r < 0 {
				r = -r
			}
			all = append(all, r)
		}
	}
	if maxEdges >= len(all) {
		return 0
	}
	if maxEdges <= 0 {
		return 1.1 // above any attainable |r|
	}
	// Threshold just above the (maxEdges+1)-th largest coefficient.
	q := 1 - float64(maxEdges)/float64(len(all))
	return stats.Quantile(all, q)
}
