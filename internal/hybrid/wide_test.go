package hybrid_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bk"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/ooc"
)

// updateWide rewrites the golden of TestWideUniverses from the sequential
// dense run of each graph and mode.
var updateWide = flag.Bool("update-wide", false, "rewrite testdata/wide_universes.json")

// wideLevel is what the golden pins of one generation step: the work the
// kernel counts on the paper's machine and what it found.
type wideLevel struct {
	FromK   int       `json:"from_k"`
	Maximal int64     `json:"maximal"`
	Dropped int64     `json:"dropped"`
	Cost    core.Cost `json:"cost"`
}

// wideGraph is one input of TestWideUniverses: graphs whose p0 groups
// need more than one and more than two words a local row.
type wideGraph struct {
	name   string
	lo, hi int
	over   int // the widest group's degree exceeds it
	build  func() *graph.Graph
}

var wideGraphs = []wideGraph{
	// A hub of degree ~200 over a sparse background, in a 10-clique with
	// nine of its neighbours: the groups of vertex 0 are four words wide
	// and their cliques run several levels deep.
	{"hub", 3, 0, 128, func() *graph.Graph {
		rng := rand.New(rand.NewSource(361))
		g := graph.RandomGNP(rng, 300, 0.05)
		for _, v := range rng.Perm(299)[:200] {
			g.AddEdge(0, v+1)
		}
		graph.PlantClique(g, append([]int{0}, g.Neighbors(0).Indices()[:9]...))
		return g
	}},
	// A planted 70-clique over G(200, 0.1): its vertices' groups are two
	// words wide.  Every subset of the clique is a clique, so the run
	// stops at 4.
	{"planted70", 3, 4, 64, func() *graph.Graph {
		rng := rand.New(rand.NewSource(362))
		g := graph.RandomGNP(rng, 200, 0.1)
		graph.PlantClique(g, rng.Perm(200)[:70])
		return g
	}},
}

// TestWideUniverses runs the join on universes of more than 64 and more
// than 128 vertices — graph C never needs more than one word — on every
// representation, in both bitmap modes, at one and two workers, plus one
// out-of-core run.  Each stream must be internal/bk's, and each step's
// Cost, Maximal and Dropped the golden's.  The golden,
// testdata/wide_universes.json, was generated with
//
//	go test ./internal/hybrid -run TestWideUniverses -update-wide
//
// at the commit before the join moved into N(p0), when the kernel ran on
// n-bit rows.
func TestWideUniverses(t *testing.T) {
	path := filepath.Join("testdata", "wide_universes.json")
	golden := map[string][]wideLevel{}
	if !*updateWide {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}
	type run struct {
		name string
		rep  graph.Representation
		cfg  enumcfg.Config
	}
	for _, wg := range wideGraphs {
		dense := wg.build()
		if d := graph.MaxDegree(dense); d <= wg.over {
			t.Fatalf("%s: max degree %d, no universe is wider than %d", wg.name, d, wg.over)
		}
		var want []string
		for _, c := range bk.MaximalCliques(dense, bk.Improved) {
			if len(c) >= wg.lo && (wg.hi == 0 || len(c) <= wg.hi) {
				want = append(want, c.Key())
			}
		}
		var runs []run
		for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
			for _, mode := range []core.CNMode{core.CNRecompute, core.CNStore} {
				for _, workers := range []int{1, 2} {
					runs = append(runs, run{fmt.Sprintf("%v/workers=%d", rep, workers), rep,
						enumcfg.Config{Lo: wg.lo, Hi: wg.hi, Mode: mode, Workers: workers}})
				}
			}
		}
		runs = append(runs, run{"ooc", graph.Dense, enumcfg.Config{Lo: wg.lo, Hi: wg.hi, Dir: t.TempDir()}})
		for _, r := range runs {
			key := fmt.Sprintf("%s/%s", wg.name, modeName(r.cfg.Mode))
			t.Run(fmt.Sprintf("%s/%s", key, r.name), func(t *testing.T) {
				g, err := graph.Convert(dense, r.rep)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				var levels []wideLevel
				hooks := core.Hooks{
					Reporter: clique.ReporterFunc(func(c clique.Clique) { got = append(got, c.Key()) }),
					OnLevel: func(ls core.LevelStats) {
						levels = append(levels, wideLevel{ls.FromK, ls.Maximal, ls.Dropped, ls.Cost})
					},
				}
				if r.cfg.Dir != "" {
					_, err = ooc.Enumerate(g, r.cfg, hooks)
				} else {
					_, err = hybrid.Enumerate(g, r.cfg, hooks)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%d cliques, internal/bk has %d in [%d,%d]", len(got), len(want), wg.lo, wg.hi)
				}
				if *updateWide {
					if _, done := golden[key]; !done {
						golden[key] = levels
					}
					return
				}
				if !slices.Equal(levels, golden[key]) {
					t.Errorf("level records differ from the golden:\n got %+v\nwant %+v", levels, golden[key])
				}
			})
		}
	}
	if *updateWide {
		data, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func modeName(m core.CNMode) string {
	if m == core.CNStore {
		return "stored"
	}
	return "memoised"
}
