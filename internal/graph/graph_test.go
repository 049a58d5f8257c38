package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func TestNewAndEdges(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("New(5): N=%d M=%d", g.N(), g.M())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate, other direction
	g.AddEdge(3, 4)
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge (0,1) missing")
	}
	if g.HasEdge(0, 0) {
		t.Error("self edge reported")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge (0,2)")
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.M() != 1 {
		t.Error("RemoveEdge failed")
	}
	g.RemoveEdge(0, 1) // no-op
	if g.M() != 1 {
		t.Error("double remove changed m")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge self-loop did not panic")
		}
	}()
	New(3).AddEdge(1, 1)
}

func TestDegreeAndDensity(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Errorf("degrees: %d %d", g.Degree(0), g.Degree(1))
	}
	if MaxDegree(g) != 3 {
		t.Errorf("MaxDegree = %d", MaxDegree(g))
	}
	if got, want := Density(g), 0.5; got != want {
		t.Errorf("Density = %g, want %g", got, want)
	}
	if Density(New(1)) != 0 {
		t.Error("Density of K1 != 0")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(2, 0)
	g.AddEdge(1, 0)
	edges := Edges(g)
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
	var visited []Edge
	ForEachEdge(g, func(u, v int) bool {
		visited = append(visited, Edge{u, v})
		return len(visited) < 2
	})
	if len(visited) != 2 {
		t.Errorf("ForEachEdge early stop visited %d", len(visited))
	}
}

func TestNames(t *testing.T) {
	g := New(2)
	if g.Name(0) != "v0" {
		t.Errorf("default name = %q", g.Name(0))
	}
	g.SetName(0, "Lin7c")
	if g.Name(0) != "Lin7c" {
		t.Errorf("Name = %q", g.Name(0))
	}
	c := g.Clone()
	if c.Name(0) != "Lin7c" {
		t.Error("Clone dropped names")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("Clone shares adjacency storage")
	}
	if g.M() != 1 || c.M() != 2 {
		t.Errorf("M: g=%d c=%d", g.M(), c.M())
	}
}

func TestComplement(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	c := g.Complement()
	if c.M() != 4 {
		t.Errorf("complement M = %d, want 4", c.M())
	}
	if c.HasEdge(0, 1) || c.HasEdge(2, 3) {
		t.Error("complement kept original edges")
	}
	if !c.HasEdge(0, 2) || !c.HasEdge(1, 3) {
		t.Error("complement missing edges")
	}
	for v := 0; v < 4; v++ {
		if c.HasEdge(v, v) {
			t.Error("complement has self-loop")
		}
	}
}

// Property: complement of complement is the original graph.
func TestQuickComplementInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(rng, 1+rng.Intn(30), 0.3)
		cc := g.Complement().Complement()
		if cc.M() != g.M() {
			return false
		}
		equal := true
		ForEachEdge(g, func(u, v int) bool {
			if !cc.HasEdge(u, v) {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 4)
	g.AddEdge(4, 5)
	g.SetName(4, "geneX")
	keep := bitset.FromIndices(6, 1, 2, 4)
	sub, newToOld := g.InducedSubgraph(keep)
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d", sub.N())
	}
	if sub.M() != 2 {
		t.Errorf("sub.M = %d, want 2", sub.M())
	}
	// newToOld must be ascending originals: [1 2 4]
	want := []int{1, 2, 4}
	for i := range want {
		if newToOld[i] != want[i] {
			t.Fatalf("newToOld = %v", newToOld)
		}
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Error("induced adjacency wrong")
	}
	if sub.Name(2) != "geneX" {
		t.Errorf("induced name = %q", sub.Name(2))
	}
}

func TestCommonNeighborsFigure2(t *testing.T) {
	// The 4-vertex example of Figure 2: a,b,c,d all mutually adjacent.
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	cn := bitset.New(4)
	CommonNeighbors(g, cn, []int{0, 1}) // clique (a,b)
	if want := bitset.FromIndices(4, 2, 3); !cn.Equal(want) {
		t.Errorf("CN(a,b) = %v", cn)
	}
	CommonNeighbors(g, cn, []int{0, 1, 2}) // clique (a,b,c)
	if want := bitset.FromIndices(4, 3); !cn.Equal(want) {
		t.Errorf("CN(a,b,c) = %v", cn)
	}
	CommonNeighbors(g, cn, []int{0, 1, 2, 3})
	if cn.Any() {
		t.Errorf("CN(a,b,c,d) = %v, want empty", cn)
	}
	if !IsMaximalClique(g, []int{0, 1, 2, 3}) {
		t.Error("K4 not maximal")
	}
	if IsMaximalClique(g, []int{0, 1, 2}) {
		t.Error("(a,b,c) reported maximal inside K4")
	}
	CommonNeighbors(g, cn, nil)
	if cn.Count() != 4 {
		t.Errorf("CN(∅) = %v, want all", cn)
	}
}

func TestIsClique(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if IsClique(g, []int{0, 1, 2}) {
		t.Error("path reported as clique")
	}
	if !IsClique(g, []int{0, 1}) || !IsClique(g, []int{3}) || !IsClique(g, nil) {
		t.Error("trivial cliques rejected")
	}
}

func TestKCorePeel(t *testing.T) {
	// Triangle 0-1-2 with a pendant 3 hanging off 2 and an isolated 4.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	alive := KCorePeel(g, 2)
	if want := bitset.FromIndices(5, 0, 1, 2); !alive.Equal(want) {
		t.Errorf("2-core = %v, want %v", alive, want)
	}
	// Peeling must cascade: in a path, requiring degree 2 kills everything.
	p := New(4)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	p.AddEdge(2, 3)
	if KCorePeel(p, 2).Any() {
		t.Error("2-core of a path is non-empty")
	}
	if got := KCorePeel(p, 0).Count(); got != 4 {
		t.Errorf("0-core size = %d", got)
	}
}

func TestRandomGNM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomGNM(rng, 50, 100)
	if g.N() != 50 || g.M() != 100 {
		t.Errorf("G(n,m): N=%d M=%d", g.N(), g.M())
	}
	defer func() {
		if recover() == nil {
			t.Error("G(n,m) with impossible m did not panic")
		}
	}()
	RandomGNM(rng, 3, 10)
}

func TestRandomGNPExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if g := RandomGNP(rng, 20, 0); g.M() != 0 {
		t.Error("G(n,0) has edges")
	}
	if g := RandomGNP(rng, 20, 1); g.M() != 190 {
		t.Errorf("G(20,1).M = %d, want 190", g.M())
	}
}

func TestPlantedGraphStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specs := []PlantedCliqueSpec{{Size: 10}, {Size: 6, Overlap: 3}, {Size: 5, Overlap: 2}}
	g := PlantedGraph(rng, 100, specs, 50)
	// Planted edges: C(10,2) + (C(6,2)-C(3,2)) + (C(5,2)-C(2,2)) plus
	// some of the 50 background (which may collide with planted pairs —
	// AddEdge dedups, and the generator only counts *new* edges).
	minPlanted := 45 + (15 - 3) + (10 - 1)
	if g.M() < minPlanted+50 {
		t.Errorf("M = %d, want >= %d", g.M(), minPlanted+50)
	}
	// Degeneracy must reflect the big module: its 9-core is not empty.
	if !KCorePeel(g, 9).Any() {
		t.Error("degeneracy below 9")
	}
}

func TestPlantedGraphBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized modules did not panic")
		}
	}()
	PlantedGraph(rand.New(rand.NewSource(4)), 5,
		[]PlantedCliqueSpec{{Size: 4}, {Size: 4}}, 0)
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := RandomGNM(rng, 40, 80)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip: N=%d M=%d", h.N(), h.M())
	}
	ForEachEdge(g, func(u, v int) bool {
		if !h.HasEdge(u, v) {
			t.Errorf("edge (%d,%d) lost", u, v)
		}
		return true
	})
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "x y\n",
		"bad vertex":   "3 1\n0 zzz\n",
		"out of range": "3 1\n0 7\n",
		"self loop":    "3 1\n1 1\n",
		"triple field": "3 1\n0 1 2\n",
	}
	for name, input := range cases {
		if _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s: no error for %q", name, input)
		}
	}
	// Comments and blank lines are fine.
	g, err := ReadEdgeList(strings.NewReader("# comment\n\n3 1\n# mid\n0 2\n"))
	if err != nil || g.M() != 1 {
		t.Errorf("comment parse: %v, m=%v", err, g)
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomGNM(rng, 30, 60)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip: N=%d M=%d", h.N(), h.M())
	}
	ForEachEdge(g, func(u, v int) bool {
		if !h.HasEdge(u, v) {
			t.Errorf("edge (%d,%d) lost", u, v)
		}
		return true
	})
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := map[string]string{
		"no problem":    "e 1 2\n",
		"bad problem":   "p foo 3 1\n",
		"bad edge":      "p edge 3 1\ne 0 2\n",
		"self loop":     "p edge 3 1\ne 2 2\n",
		"unknown":       "p edge 3 1\nq 1 2\n",
		"missing field": "p edge 3 1\ne 1\n",
		"empty":         "",
	}
	for name, input := range cases {
		if _, err := ReadDIMACS(strings.NewReader(input)); err == nil {
			t.Errorf("%s: no error for %q", name, input)
		}
	}
	// Comments accepted.
	g, err := ReadDIMACS(strings.NewReader("c hello\np edge 2 1\ne 1 2\n"))
	if err != nil || g.M() != 1 {
		t.Errorf("comment parse: %v", err)
	}
}

// Property: sum of degrees equals 2m on random graphs.
func TestQuickHandshake(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(rng, 1+rng.Intn(40), 0.25)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: KCorePeel(k) retains exactly vertices with >= k surviving
// neighbors, verified by direct degree recount on the induced subgraph.
func TestQuickKCoreFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(rng, 2+rng.Intn(30), 0.3)
		k := 1 + rng.Intn(4)
		alive := KCorePeel(g, k)
		sub, _ := g.InducedSubgraph(alive)
		for v := 0; v < sub.N(); v++ {
			if sub.Degree(v) < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
