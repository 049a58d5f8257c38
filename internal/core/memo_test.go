package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// TestPrefixCNMemo drives the memoised prefix-bitmap reconstruction
// with sub-list sequences in sorted order, shuffled, with repeats and
// with depth changes k -> k+1 -> k, over every representation, asking
// for the whole prefix's row, for the row one vertex short of it (the
// dense join's) or for either at random: each answer must equal the
// from-scratch AND of the rows it covers, Cost.ANDWords must count
// exactly the ANDs of the whole prefix the memo could not avoid, and
// every row the memo grows is charged to the builder's governor.
func TestPrefixCNMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dense := graph.RandomGNP(rng, 90, 0.5)
	words := int64((dense.N() + 63) / 64)

	// Random strictly increasing prefixes of depth 1..6, not necessarily
	// cliques: the memo is about rows, not about cliques.
	var prefixes [][]uint32
	for len(prefixes) < 300 {
		p := make([]uint32, 1+rng.Intn(6))
		for i, v := range rng.Perm(dense.N())[:len(p)] {
			p[i] = uint32(v)
		}
		slices.Sort(p)
		prefixes = append(prefixes, p)
		if rng.Intn(4) == 0 { // a repeat, and a sibling that differs in the last vertex only
			prefixes = append(prefixes, slices.Clone(p))
			if last := p[len(p)-1]; int(last) < dense.N()-1 {
				sib := slices.Clone(p)
				sib[len(sib)-1] = last + 1
				prefixes = append(prefixes, sib)
			}
		}
	}
	orders := map[string][][]uint32{"shuffled": prefixes}
	sorted := slices.Clone(prefixes)
	slices.SortFunc(sorted, slices.Compare[[]uint32])
	orders["sorted"] = sorted
	// Depth changes: each prefix, its extension by one vertex, itself again.
	var zigzag [][]uint32
	for _, p := range sorted[:100] {
		if last := p[len(p)-1]; int(last) < dense.N()-1 {
			zigzag = append(zigzag, p, append(slices.Clone(p), last+1), p)
		}
	}
	orders["k,k+1,k"] = zigzag

	// The memo answers two questions: the whole prefix's row (prefixCN,
	// the CSR and WAH joins) and the row one vertex short of it (the
	// dense join, which folds the last vertex into its probes) — asked
	// alone or interleaved, the memo must not confuse them. The whole
	// prefix's case carries no suffix: it is the case named rep/order.
	depths := map[string]func(rng *rand.Rand, p []uint32) int{
		"":       func(_ *rand.Rand, p []uint32) int { return len(p) },
		"/short": func(_ *rand.Rand, p []uint32) int { return len(p) - 1 },
		"/mixed": func(rng *rand.Rand, p []uint32) int { return len(p) - rng.Intn(2) },
	}

	for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
		g, err := graph.Convert(dense, rep)
		if err != nil {
			t.Fatal(err)
		}
		for name, seq := range orders {
			for dname, depthOf := range depths {
				t.Run(fmt.Sprintf("%v/%s%s", rep, name, dname), func(t *testing.T) {
					rng := rand.New(rand.NewSource(78))
					b := NewBuilderMode(g, CNRecompute, bitset.NewPool(g.N()))
					gov := membudget.New(0)
					b.Gov = gov
					base := b.ScratchBytes()
					want, row := bitset.New(g.N()), bitset.New(g.N())
					var prev []uint32
					for i, p := range seq {
						before := b.Cost.ANDWords
						depth := depthOf(rng, p)
						var got *bitset.Bitset
						if depth == len(p) {
							got = b.prefixCN(&SubList{Prefix: p})
						} else {
							got = b.memoRow(&SubList{Prefix: p}, depth)
						}

						if depth == 0 {
							if got != nil {
								t.Fatalf("step %d: the row of an empty prefix is %v, want none", i, got)
							}
						} else {
							g.Materialize(int(p[0]), want)
							for _, v := range p[1:depth] {
								g.Materialize(int(v), row)
								want.And(want, row)
							}
							if !got.Equal(want) {
								t.Fatalf("step %d: memoised CN of %v (after %v) differs from the from-scratch AND", i, p[:depth], prev)
							}
						}
						// Whichever row was asked for, the charge is the
						// whole prefix's reconstruction.
						shared := 0
						for shared < len(p) && shared < len(prev) && p[shared] == prev[shared] {
							shared++
						}
						ands := int64(len(p) - max(shared, 1)) // row 0 is a copy, not an AND
						if shared == len(p) {
							ands = 0
						}
						if did := b.Cost.ANDWords - before; did != ands*words {
							t.Fatalf("step %d: %v after %v charged %d AND words, want %d ANDs of %d words",
								i, p, prev, did, ands, words)
						}
						prev = p
					}
					if grown := b.ScratchBytes() - base; grown <= 0 || gov.Used() != grown {
						t.Errorf("memo grew the scratch by %d bytes, governor holds %d", grown, gov.Used())
					}
				})
			}
		}
	}
}
