// Package repro is a Go reproduction of "Genome-Scale Computational
// Approaches to Memory-Intensive Applications in Systems Biology"
// (Zhang, Abu-Khzam, Baldwin, Chesler, Langston, Samatova; SC|05).
//
// The primary contribution is the Clique Enumerator: exact enumeration of
// all maximal cliques of an undirected graph in non-decreasing order of
// size, over a bitmap (bit-string) adjacency substrate, bounded below by
// a k-clique seeder and above by an exact maximum-clique computation.
// The paper retargets this one algorithm across execution regimes —
// in-core sequential, out-of-core disk-backed, and shared-memory parallel
// — and so does this package: Enumerator is the single facade over all
// three backends, selected by functional options behind one
// Run(ctx, ...) / Cliques(ctx, ...) entry point:
//
//	enum := repro.NewEnumerator(
//	    repro.WithBounds(5, 0),
//	    repro.WithWorkers(8),
//	    repro.WithStrategy(repro.Affinity),
//	)
//	for c, err := range enum.Cliques(ctx, g) { ... }
//
// See README.md for the architecture map and migration table, and
// DESIGN.md for the paper-to-module inventory.
package repro

import (
	"context"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/maxclique"
	"repro/internal/paraclique"
)

// Graph is an undirected simple graph with dense bitmap adjacency rows —
// the paper's "globally addressable bitmap memory index" and the default
// representation.
type Graph = graph.Graph

// GraphInterface is the representation-independent read contract every
// enumeration entry point accepts: *Graph (dense), *CSRGraph and
// *CompressedGraph all implement it.  Obtain non-dense graphs from
// NewGraphBuilder, ConvertGraph, the *Rep readers, or
// CorrelationGraphRep.
type GraphInterface = graph.Interface

// CSRGraph is the compressed-sparse-row adjacency backend: 4(n+1+2m)
// bytes, the O(n+m) representation for genome-scale sparse graphs.
type CSRGraph = graph.CSRGraph

// CompressedGraph stores one WAH-compressed bitmap per adjacency row —
// the paper's §5 compressed-bitmap direction applied to the graph
// substrate itself.
type CompressedGraph = graph.CompressedGraph

// Representation names an adjacency storage backend.
type Representation = graph.Representation

const (
	// Auto selects Dense or CSR from the measured edge density.
	Auto = graph.Auto
	// Dense is the paper's bitmap index: n*ceil(n/64)*8 adjacency bytes.
	Dense = graph.Dense
	// CSR is compressed sparse row: 4(n+1+2m) adjacency bytes.
	CSR = graph.CSR
	// Compressed is WAH-compressed bitmap rows: measured per graph.
	Compressed = graph.Compressed
)

// ParseRepresentation parses "auto", "dense", "csr" or "wah" (alias
// "compressed") — the names the cliquer -repr flag speaks.
func ParseRepresentation(s string) (Representation, error) {
	return graph.ParseRepresentation(s)
}

// GraphBuilder is the streaming, append-only construction path: AddEdge/
// SetName return errors (never panic), duplicates collapse at Freeze,
// and Freeze picks the representation from measured density unless one
// was pinned with WithRepresentation.  The frozen graph is immutable.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a streaming builder over n vertices with
// automatic representation selection.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// ConvertGraph returns g in the requested representation, re-encoding
// only when necessary (g itself is returned when it already matches).
func ConvertGraph(g GraphInterface, rep Representation) (GraphInterface, error) {
	return graph.Convert(g, rep)
}

// DenseAdjacencyBytes returns the adjacency footprint a dense graph on n
// vertices would occupy, without allocating it — the baseline the
// sparse-representation memory wins are measured against.
func DenseAdjacencyBytes(n int) int64 { return graph.DenseAdjacencyBytes(n) }

// Density returns m / (n choose 2) for any representation (0 for
// graphs with fewer than two vertices).
func Density(g GraphInterface) float64 { return graph.Density(g) }

// Clique is a set of vertices in canonical (increasing) order.  Cliques
// passed to a Reporter are borrowed: Clone before retaining.  Cliques
// yielded by Enumerator.Cliques are owned copies.
type Clique = clique.Clique

// NewGraph returns an edgeless graph on n vertices; add edges with
// g.AddEdge(u, v).
func NewGraph(n int) *Graph { return graph.New(n) }

// MaxClique returns the lexicographically smallest maximum clique of g
// (exact, branch-and-bound with greedy-coloring bounds, run inside one
// vertex's neighbourhood at a time).  Any representation is accepted and
// none is densified.
func MaxClique(g GraphInterface) []int { return maxclique.Find(g) }

// MaxCliqueContext is MaxClique with cancellation: the search polls ctx
// between branch-and-bound node expansions and returns ctx's error when
// it is canceled.  The search is worst-case exponential, so any caller
// serving it to a client that can go away should use this form —
// cancellation is what turns a disconnect into freed CPU instead of a
// search that runs to completion unobserved.
func MaxCliqueContext(ctx context.Context, g GraphInterface) ([]int, error) {
	return maxclique.FindContext(ctx, g)
}

// MaxCliqueSize returns ω(g) — the upper bound the paper feeds to
// WithBounds.
func MaxCliqueSize(g GraphInterface) int { return maxclique.Size(g) }

// Paraclique is a dense near-clique module.
type Paraclique = paraclique.Paraclique
