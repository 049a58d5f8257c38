// Package paraclique extracts paracliques: dense, almost-complete
// subgraphs grown around a maximum clique.  The paper motivates them
// directly — "the ability to generate cliques, paracliques and other
// forms of densely-connected subgraphs allows us to separate these
// causes, and to place them in a larger systems-level graph" (Section 1)
// — because biological co-expression modules tolerate a few missing
// correlations (dropouts, noise) that break strict clique membership.
//
// The extraction follows the Langston-group glom strategy: start from a
// maximum clique C and repeatedly absorb any outside vertex adjacent to
// at least ceil(glom * |current|) members, where glom in (0,1] is the
// proportional glom factor; repeat until no vertex qualifies.  Successive
// paracliques are obtained by removing the previous one's vertices.
package paraclique

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/maxclique"
	"repro/internal/membudget"
)

// Options configures extraction.
type Options struct {
	// Ctx, when non-nil, cancels extraction: Extract returns the
	// paracliques found so far.  It is polled between paracliques and
	// inside each maximum-clique seed search (every 1 024 search nodes),
	// so a canceled extraction stops within a fraction of a millisecond,
	// not at the end of the seed it was searching.  Callers that need an
	// error observe ctx.Err() themselves.
	Ctx context.Context
	// Glom is the proportional glom factor: a vertex joins when adjacent
	// to at least ceil(Glom * |P|) members of the current paraclique P.
	// Must be in (0, 1]; 1 reduces to strict clique growth.
	Glom float64
	// MinCliqueSize stops Extract when the next maximum clique falls
	// below this size (default 3).
	MinCliqueSize int
	// MaxParacliques bounds how many paracliques Extract returns
	// (0 = all).
	MaxParacliques int
	// Gov, when non-nil, is charged the dense working copy and each seed
	// search while Extract runs; it is back at its entry value when
	// Extract returns.  Extract never polls it.
	Gov *membudget.Governor
}

// Paraclique is one extracted dense subgraph.
type Paraclique struct {
	Vertices []int // canonical order
	CoreSize int   // size of the seed maximum clique
	Density  float64
}

// One grows a single paraclique from the given seed clique, over any
// graph representation.
func One(g graph.Interface, seed []int, glom float64) Paraclique {
	if !(glom > 0 && glom <= 1) {
		panic(fmt.Sprintf("paraclique: glom %v out of (0,1]", glom))
	}
	members := bitset.New(g.N())
	for _, v := range seed {
		members.Set(v)
	}
	size := len(seed)
	for {
		need := int(glom*float64(size) + 0.999999) // ceil for rational glom
		best := -1
		for v := 0; v < g.N(); v++ {
			if members.Test(v) {
				continue
			}
			if g.Row(v).AndCount(members) >= need {
				best = v
				break
			}
		}
		if best < 0 {
			break
		}
		members.Set(best)
		size++
	}
	verts := members.Indices()
	return Paraclique{
		Vertices: verts,
		CoreSize: len(seed),
		Density:  density(g, verts),
	}
}

func density(g graph.Interface, verts []int) float64 {
	if len(verts) < 2 {
		return 1
	}
	edges := 0
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			if g.HasEdge(verts[i], verts[j]) {
				edges++
			}
		}
	}
	return float64(edges) / float64(len(verts)*(len(verts)-1)/2)
}

// Extract repeatedly finds a maximum clique, gloms a paraclique around
// it, removes the paraclique's vertices, and continues — decomposing a
// correlation graph into its dense modules.
func Extract(g graph.Interface, opts Options) []Paraclique {
	if opts.Glom == 0 {
		opts.Glom = 0.8
	}
	if opts.MinCliqueSize == 0 {
		opts.MinCliqueSize = 3
	}
	// The decomposition gloms over bitmaps and induces a smaller subgraph
	// after every paraclique, so it works on a dense copy, which each
	// remainder replaces.
	var work *graph.Graph
	if d, ok := g.(*graph.Graph); ok {
		work = d.Clone()
	} else {
		work = graph.Densify(g)
	}
	held := work.Bytes()
	opts.Gov.Charge(held)
	defer func() { opts.Gov.Release(held) }()
	idToOrig := make([]int, g.N())
	for i := range idToOrig {
		idToOrig[i] = i
	}

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var out []Paraclique
	for {
		if opts.MaxParacliques > 0 && len(out) >= opts.MaxParacliques {
			return out
		}
		seed, _, err := maxclique.Search(ctx, work, opts.Gov)
		if err != nil || len(seed) < opts.MinCliqueSize {
			return out
		}
		p := One(work, seed, opts.Glom)
		// Translate to original vertex IDs.
		orig := make([]int, len(p.Vertices))
		for i, v := range p.Vertices {
			orig[i] = idToOrig[v]
		}
		out = append(out, Paraclique{
			Vertices: orig,
			CoreSize: p.CoreSize,
			Density:  p.Density,
		})
		// Remove the paraclique and continue on the remainder.
		removed := bitset.New(work.N())
		removed.SetAll()
		for _, v := range p.Vertices {
			removed.Clear(v)
		}
		sub, newToOld := work.InducedSubgraph(removed)
		remap := make([]int, sub.N())
		for ni, ov := range newToOld {
			remap[ni] = idToOrig[ov]
		}
		opts.Gov.Charge(sub.Bytes())
		opts.Gov.Release(held)
		work, held = sub, sub.Bytes()
		idToOrig = remap
		if work.N() == 0 {
			return out
		}
	}
}
