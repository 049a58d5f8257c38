package kclique_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitset"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/kclique"
)

// updateParity rewrites the golden of TestSeederParity.
var updateParity = flag.Bool("update-parity", false, "rewrite testdata/seeder_parity.json")

// parityCase is what the golden pins of one enumeration: a hash of every
// group the search delivered, in order, and its counters.
type parityCase struct {
	Groups string        `json:"groups"`
	Stats  kclique.Stats `json:"stats"`
}

// parityGraphs is the corpus of TestSeederParity: graph C at 0.30, whose
// survivors thin out as k grows, and internal/hybrid's hub graph, a
// vertex of degree ~200 in a 10-clique, whose neighbourhoods are wider
// than 64 and than 128 vertices.
var parityGraphs = []struct {
	name  string
	build func() *graph.Graph
}{
	{"C0.30", func() *graph.Graph { return expt.Build(expt.SpecC.Scale(0.3), 3) }},
	{"hub", func() *graph.Graph {
		rng := rand.New(rand.NewSource(361))
		g := graph.RandomGNP(rng, 300, 0.05)
		for _, v := range rng.Perm(299)[:200] {
			g.AddEdge(0, v+1)
		}
		graph.PlantClique(g, append([]int{0}, g.Neighbors(0).Indices()[:9]...))
		return g
	}},
}

// writeInts feeds a length-prefixed list of ints to h.
func writeInts(h hash.Hash, vs []int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(vs)))
	h.Write(buf[:])
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

// TestSeederParity pins the k-clique seeder's output on every
// representation, at k 3..9, whole and cut into three shards: each
// group's prefix, maximal tails and candidate tails, with the prefix's
// common neighbours (hashed in delivery order), and the summed Stats
// must be the golden's.  The golden,
// testdata/seeder_parity.json, was generated with
//
//	go test ./internal/kclique -run TestSeederParity -update-parity
//
// while the search still ran on n-bit rows of the whole graph, so it is
// the reference the search inside N(v) must reproduce.  It hashed each
// group's own common-neighbour bitmap, which the group no longer carries;
// the prefix's common neighbours in the graph are the same set.
func TestSeederParity(t *testing.T) {
	path := filepath.Join("testdata", "seeder_parity.json")
	golden := map[string]parityCase{}
	if !*updateParity {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]parityCase{}
	for _, pg := range parityGraphs {
		dense := pg.build()
		for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
			g, err := graph.Convert(dense, rep)
			if err != nil {
				t.Fatal(err)
			}
			for k := 3; k <= 9; k++ {
				p := kclique.Prepare(g, k)
				for _, shards := range []int{1, 3} {
					name := fmt.Sprintf("%s/%v/k=%d/shards=%d", pg.name, rep, k, shards)
					h := sha256.New()
					cn := bitset.New(g.N())
					var sum kclique.Stats
					for s := 0; s < shards; s++ {
						st, err := p.Enumerate(context.Background(), kclique.Options{K: k, Shard: s, Shards: shards,
							OnGroup: func(gr kclique.Group) {
								writeInts(h, gr.Prefix)
								writeInts(h, gr.MaximalTails)
								writeInts(h, gr.CandidateTails)
								graph.CommonNeighbors(g, cn, gr.Prefix)
								writeInts(h, cn.Indices())
							}})
						if err != nil {
							t.Fatal(err)
						}
						sum.Maximal += st.Maximal
						sum.Candidates += st.Candidates
						sum.Groups += st.Groups
						sum.SearchNodes += st.SearchNodes
						sum.BoundaryCuts += st.BoundaryCuts
						sum.PeeledAway = st.PeeledAway
					}
					c := parityCase{Groups: hex.EncodeToString(h.Sum(nil)), Stats: sum}
					got[name] = c
					if *updateParity {
						continue
					}
					if want, ok := golden[name]; !ok {
						t.Errorf("%s: not in the golden", name)
					} else if c != want {
						t.Errorf("%s: got %+v, want %+v", name, c, want)
					}
				}
			}
		}
	}
	if *updateParity {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(golden) {
		t.Errorf("%d cases, the golden has %d", len(got), len(golden))
	}
}
