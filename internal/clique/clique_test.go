package clique

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestCanonical(t *testing.T) {
	cases := []struct {
		c    Clique
		want bool
	}{
		{Clique{}, true},
		{Clique{5}, true},
		{Clique{1, 2, 9}, true},
		{Clique{1, 1}, false},
		{Clique{2, 1}, false},
	}
	for _, tc := range cases {
		if got := tc.c.Canonical(); got != tc.want {
			t.Errorf("Canonical(%v) = %v", tc.c, got)
		}
	}
}

func TestKeyAndNormalize(t *testing.T) {
	c := Normalize(Clique{3, 1, 2})
	if !c.Canonical() {
		t.Fatal("Normalize did not sort")
	}
	if c.Key() != "1,2,3" {
		t.Errorf("Key = %q", c.Key())
	}
	if (Clique{}).Key() != "" {
		t.Error("empty key not empty")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Clique
		want int
	}{
		{Clique{1}, Clique{1, 2}, -1},    // size first
		{Clique{9}, Clique{1, 2}, -1},    // size dominates values
		{Clique{1, 2}, Clique{1, 3}, -1}, // lexicographic
		{Clique{1, 3}, Clique{1, 2}, 1},  //
		{Clique{1, 2}, Clique{1, 2}, 0},  // equal
		{Clique{2, 4, 6}, Clique{2, 4, 5}, 1},
	}
	for _, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCollector(t *testing.T) {
	col := &Collector{}
	buf := Clique{2, 5}
	col.Emit(buf)
	buf[0] = 99 // reporter contract: emitted slices are borrowed
	col.Emit(Clique{1})
	col.Sort()
	if len(col.Cliques) != 2 {
		t.Fatalf("collected %d", len(col.Cliques))
	}
	if col.Cliques[0].Key() != "1" || col.Cliques[1].Key() != "2,5" {
		t.Errorf("sorted = %v", col.Cliques)
	}
}

func TestCounter(t *testing.T) {
	ct := NewCounter()
	ct.Emit(Clique{1, 2})
	ct.Emit(Clique{3, 4})
	ct.Emit(Clique{1, 2, 3})
	if ct.Total != 3 || ct.BySize[2] != 2 || ct.BySize[3] != 1 {
		t.Errorf("counter state: %+v", ct)
	}
	if ct.MaxSize() != 3 {
		t.Errorf("MaxSize = %d", ct.MaxSize())
	}
	if NewCounter().MaxSize() != 0 {
		t.Error("empty MaxSize != 0")
	}
}

func TestReporterFunc(t *testing.T) {
	var got Clique
	ReporterFunc(func(c Clique) { got = append(Clique(nil), c...) }).Emit(Clique{7})
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("ReporterFunc got %v", got)
	}
}

func triangleWithTail(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	return g
}

func TestValidate(t *testing.T) {
	g := triangleWithTail(t)
	good := []Clique{{0, 1, 2}, {2, 3}}
	if err := Validate(g, good, 2, 3); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	cases := map[string][]Clique{
		"non-canonical": {{1, 0, 2}},
		"not a clique":  {{0, 3}},
		"not maximal":   {{0, 1}},
		"duplicate":     {{0, 1, 2}, {0, 1, 2}},
		"below lo":      {{2, 3}},
		"above hi":      {{0, 1, 2}},
	}
	los := map[string]int{"below lo": 3}
	his := map[string]int{"above hi": 2}
	for name, set := range cases {
		lo, hi := 1, 0
		if v, ok := los[name]; ok {
			lo = v
		}
		if v, ok := his[name]; ok {
			hi = v
		}
		if err := Validate(g, set, lo, hi); err == nil {
			t.Errorf("%s: invalid set accepted", name)
		}
	}
}

func TestSameSets(t *testing.T) {
	a := []Clique{{1, 2}, {3}}
	b := []Clique{{3}, {1, 2}}
	if ok, _ := SameSets(a, b); !ok {
		t.Error("equal sets reported different")
	}
	c := []Clique{{1, 2}}
	if ok, diff := SameSets(a, c); ok || diff == "" {
		t.Error("different sets reported equal")
	}
	if ok, diff := SameSets(c, a); ok || diff == "" {
		t.Error("different sets reported equal (reversed)")
	}
}

func TestBruteForceMaximal(t *testing.T) {
	g := triangleWithTail(t)
	got := BruteForceMaximal(g)
	// Maximal cliques: {0,1,2}, {2,3}, {4}.
	if len(got) != 3 {
		t.Fatalf("maximal cliques = %v", got)
	}
	if err := Validate(g, got, 1, 0); err != nil {
		t.Errorf("brute force output invalid: %v", err)
	}
	if BruteForceMaxCliqueSize(g) != 3 {
		t.Errorf("max size = %d", BruteForceMaxCliqueSize(g))
	}
}

func TestBruteForceKCliques(t *testing.T) {
	g := triangleWithTail(t)
	if got := BruteForceKCliques(g, 2); len(got) != 4 {
		t.Errorf("2-cliques = %v", got)
	}
	if got := BruteForceKCliques(g, 3); len(got) != 1 {
		t.Errorf("3-cliques = %v", got)
	}
	if got := BruteForceKCliques(g, 4); got != nil {
		t.Errorf("4-cliques = %v", got)
	}
}

func TestBruteForcePanicsOnLargeGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 25-vertex brute force")
		}
	}()
	BruteForceMaximal(graph.New(25))
}

func TestBruteForceRandomSelfConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomGNP(rng, 2+rng.Intn(10), 0.5)
		if err := Validate(g, BruteForceMaximal(g), 1, 0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
