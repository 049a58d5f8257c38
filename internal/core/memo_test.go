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

// TestPrefixCNMemo drives the local prefix memo with sub-list sequences
// in sorted order, shuffled, with repeats and with depth changes k -> k+1
// -> k, over every representation.  The prefixes are cliques, so each
// lies in N(p0) of its first vertex, and each record carries the lcp its
// block would store: what it shares with the record before.  After each
// admission the memo row of the whole prefix, of the prefix one vertex
// short of it, or of either at random must equal the from-scratch AND of
// the rows it covers, read over N(p0); Cost.Rebuild must count exactly
// the ANDs of the whole prefix the memo could not avoid; and every byte
// the scratch grows is charged to the builder's governor.
func TestPrefixCNMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dense := graph.RandomGNP(rng, 90, 0.5)
	words := int64((dense.N() + 63) / 64)

	// commonAbove returns a vertex above floor adjacent to every vertex
	// of c, drawn at random, or -1.
	commonAbove := func(c []uint32, floor int) int {
		var cands []int
		for v := floor + 1; v < dense.N(); v++ {
			ok := true
			for _, x := range c {
				if int(x) == v || !dense.HasEdge(int(x), v) {
					ok = false
					break
				}
			}
			if ok {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return -1
		}
		return cands[rng.Intn(len(cands))]
	}
	// Random cliques of 1..6 vertices, strictly increasing.
	var prefixes [][]uint32
	for len(prefixes) < 300 {
		p := []uint32{uint32(rng.Intn(dense.N()))}
		for want := 1 + rng.Intn(6); len(p) < want; {
			v := commonAbove(p, -1)
			if v < 0 {
				break
			}
			p = append(p, uint32(v))
		}
		slices.Sort(p)
		prefixes = append(prefixes, p)
		if rng.Intn(4) == 0 { // a repeat, and a sibling that differs in the last vertex only
			prefixes = append(prefixes, slices.Clone(p))
			if x := commonAbove(p[:len(p)-1], int(p[len(p)-1])); x >= 0 {
				prefixes = append(prefixes, append(slices.Clone(p[:len(p)-1]), uint32(x)))
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
		if x := commonAbove(p, int(p[len(p)-1])); x >= 0 {
			zigzag = append(zigzag, p, append(slices.Clone(p), uint32(x)), p)
		}
	}
	orders["k,k+1,k"] = zigzag

	// The memo holds a row for every depth of the prefix: the whole
	// prefix's (the join's), the one a vertex short of it, or either at
	// random, read after the same admission.  The whole prefix's case
	// carries no suffix: it is the case named rep/order.
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
					b := NewBuilder(g)
					gov := membudget.New(0)
					b.Gov = gov
					base := b.ScratchBytes()
					want, row := bitset.New(g.N()), bitset.New(g.N())
					var prev []uint32
					for i, p := range seq {
						before := b.Cost.Rebuild
						depth := depthOf(rng, p)
						lcp := 0 // the lcp the record's block would store
						for lcp < len(p) && lcp < len(prev) && p[lcp] == prev[lcp] {
							lcp++
						}
						a, err := b.adm.Admit(&SubList{Prefix: p, LCP: lcp}, b.Gov)
						if err != nil {
							t.Fatalf("step %d: clique %v rejected: %v", i, p, err)
						}
						u := b.adm
						if got := u.memo[(len(p)-1)*u.W : len(p)*u.W]; !slices.Equal(a.CN, got) {
							t.Fatalf("step %d: the join's row of %v is not the memo's", i, p)
						}
						b.Join(a, nil) // no tails: it only books the record's Cost
						if depth > 0 {
							g.Materialize(int(p[0]), want)
							for _, v := range p[1:depth] {
								g.Materialize(int(v), row)
								want.And(want, row)
							}
							got, set := u.memo[(depth-1)*u.W:depth*u.W], 0
							for x, v := range u.Nbr {
								in := got[x>>6]&(1<<(x&63)) != 0
								if in != want.Test(int(v)) {
									t.Fatalf("step %d: memoised CN of %v (after %v) differs from the from-scratch AND at vertex %d",
										i, p[:depth], prev, v)
								}
								if in {
									set++
								}
							}
							if set != want.Count() {
								t.Fatalf("step %d: CN of %v has %d members, %d of them in N(%d)", i, p[:depth], want.Count(), set, p[0])
							}
						}
						// Whichever row is read, the charge is the whole
						// prefix's reconstruction.
						shared := 0
						for shared < len(p) && shared < len(prev) && p[shared] == prev[shared] {
							shared++
						}
						ands := int64(len(p) - max(shared, 1)) // row 0 is a copy, not an AND
						if shared == len(p) {
							ands = 0
						}
						if did := b.Cost.Rebuild - before; did != ands*words {
							t.Fatalf("step %d: %v after %v charged %d AND words, want %d ANDs of %d words",
								i, p, prev, did, ands, words)
						}
						prev = p
					}
					if grown := b.ScratchBytes() - base; grown <= 0 || gov.Used() != grown {
						t.Errorf("the scratch grew by %d bytes, governor holds %d", grown, gov.Used())
					}
				})
			}
		}
	}
}
