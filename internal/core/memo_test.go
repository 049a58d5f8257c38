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
// with depth changes k -> k+1 -> k, over every representation: each
// answer must equal the from-scratch AND of the prefix's rows,
// Cost.ANDWords must count exactly the ANDs the memo could not avoid,
// and every row the memo grows is charged to the builder's governor.
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

	for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
		g, err := graph.Convert(dense, rep)
		if err != nil {
			t.Fatal(err)
		}
		for name, seq := range orders {
			t.Run(fmt.Sprintf("%v/%s", rep, name), func(t *testing.T) {
				b := NewBuilderMode(g, CNRecompute, bitset.NewPool(g.N()))
				gov := membudget.New(0)
				b.Gov = gov
				base := b.ScratchBytes()
				want, row := bitset.New(g.N()), bitset.New(g.N())
				var prev []uint32
				for i, p := range seq {
					before := b.Cost.ANDWords
					got := b.prefixCN(&SubList{Prefix: p})

					g.Materialize(int(p[0]), want)
					for _, v := range p[1:] {
						g.Materialize(int(v), row)
						want.And(want, row)
					}
					if !got.Equal(want) {
						t.Fatalf("step %d: memoised CN of %v (after %v) differs from the from-scratch AND", i, p, prev)
					}
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
