package graph

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// allReps are the concrete representations every parity test sweeps.
var allReps = []Representation{Dense, CSR, Compressed}

// buildRep streams the edges of a dense reference graph into a builder
// pinned to rep.
func buildRep(t *testing.T, ref *Graph, rep Representation) Interface {
	t.Helper()
	b := NewBuilder(ref.N()).WithRepresentation(rep)
	ForEachEdge(ref, func(u, v int) bool {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
		}
		return true
	})
	g, err := b.Freeze()
	if err != nil {
		t.Fatalf("Freeze(%v): %v", rep, err)
	}
	return g
}

// TestRepresentationParity checks that every backend answers the whole
// Interface contract — and every bitset.Reader operation — identically
// to the dense reference, on randomized graphs.
func TestRepresentationParity(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		maxM := n * (n - 1) / 2
		ref := RandomGNM(rng, n, rng.Intn(maxM/2+1))
		ref.SetName(0, "gene0")
		ref.SetName(n-1, "geneN")

		for _, rep := range allReps {
			b := NewBuilder(n).WithRepresentation(rep)
			ForEachEdge(ref, func(u, v int) bool {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				// Duplicate insertions must collapse identically.
				if rng.Intn(4) == 0 {
					if err := b.AddEdge(v, u); err != nil {
						t.Fatal(err)
					}
				}
				return true
			})
			b.SetName(0, "gene0")
			b.SetName(n-1, "geneN")
			g, err := b.Freeze()
			if err != nil {
				t.Fatalf("seed %d rep %v: %v", seed, rep, err)
			}
			if g.Representation() != rep {
				t.Fatalf("seed %d: got representation %v, want %v", seed, g.Representation(), rep)
			}
			checkParity(t, ref, g)
		}
	}
}

func checkParity(t *testing.T, ref *Graph, g Interface) {
	t.Helper()
	n := ref.N()
	if g.N() != n || g.M() != ref.M() {
		t.Fatalf("%v: n,m = %d,%d want %d,%d", g.Representation(), g.N(), g.M(), n, ref.M())
	}
	if g.Name(0) != ref.Name(0) || g.Name(n-1) != ref.Name(n-1) || g.Name(1) != ref.Name(1) {
		t.Fatalf("%v: names differ", g.Representation())
	}
	probe := bitset.New(n)
	for v := 0; v < n; v += 7 {
		probe.Set(v)
	}
	scratchA := bitset.New(n)
	scratchB := bitset.New(n)
	want := bitset.New(n)
	for v := 0; v < n; v++ {
		if g.Degree(v) != ref.Degree(v) {
			t.Fatalf("%v: degree(%d) = %d want %d", g.Representation(), v, g.Degree(v), ref.Degree(v))
		}
		refRow := ref.Neighbors(v)
		row := g.Row(v)
		for u := 0; u < n; u++ {
			if g.HasEdge(v, u) != ref.HasEdge(v, u) {
				t.Fatalf("%v: HasEdge(%d,%d) mismatch", g.Representation(), v, u)
			}
		}
		// ForEach order and content.
		var got []int
		row.ForEach(func(i int) bool { got = append(got, i); return true })
		var exp []int
		refRow.ForEach(func(i int) bool { exp = append(exp, i); return true })
		if len(got) != len(exp) {
			t.Fatalf("%v: ForEach(%d) count mismatch", g.Representation(), v)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("%v: ForEach(%d) order mismatch", g.Representation(), v)
			}
		}
		// Materialize.
		g.Materialize(v, scratchA)
		if !scratchA.Equal(refRow) {
			t.Fatalf("%v: Materialize(%d) mismatch", g.Representation(), v)
		}
		// Reader algebra against a fixed dense probe set.
		if row.IntersectsWith(probe) != refRow.IntersectsWith(probe) {
			t.Fatalf("%v: IntersectsWith(%d) mismatch", g.Representation(), v)
		}
		if row.AndCount(probe) != refRow.AndCount(probe) {
			t.Fatalf("%v: AndCount(%d) mismatch", g.Representation(), v)
		}
		row.AndInto(scratchA, probe)
		want.And(refRow, probe)
		if !scratchA.Equal(want) {
			t.Fatalf("%v: AndInto(%d) mismatch", g.Representation(), v)
		}
		scratchB.CopyFrom(probe)
		row.IntersectInto(scratchB)
		if !scratchB.Equal(want) {
			t.Fatalf("%v: IntersectInto(%d) mismatch", g.Representation(), v)
		}
	}
	// Canonical edge streams.
	refEdges := Edges(ref)
	gotEdges := Edges(g)
	if len(refEdges) != len(gotEdges) {
		t.Fatalf("%v: edge count mismatch", g.Representation())
	}
	for i := range refEdges {
		if refEdges[i] != gotEdges[i] {
			t.Fatalf("%v: edge %d mismatch", g.Representation(), i)
		}
	}
}

// TestGenericHelpersParity checks the Interface-level helpers against
// the dense methods.
func TestGenericHelpersParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := RandomGNM(rng, 70, 500)
	for _, rep := range allReps {
		g := buildRep(t, ref, rep)
		if MaxDegree(g) != MaxDegree(ref) {
			t.Errorf("%v: MaxDegree mismatch", rep)
		}
		if Density(g) != Density(ref) {
			t.Errorf("%v: Density mismatch", rep)
		}
		alive := KCorePeel(g, 3)
		if !alive.Equal(KCorePeel(ref, 3)) {
			t.Errorf("%v: KCorePeel mismatch", rep)
		}
		cn := bitset.New(ref.N())
		cnRef := bitset.New(ref.N())
		cliqueVerts := []int{1, 2, 5}
		CommonNeighbors(g, cn, cliqueVerts)
		CommonNeighbors(ref, cnRef, cliqueVerts)
		if !cn.Equal(cnRef) {
			t.Errorf("%v: CommonNeighbors mismatch", rep)
		}
	}
}

// TestConvertRoundTrip checks Convert between every ordered pair of
// representations, including the identity (which must not copy).
func TestConvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := RandomGNM(rng, 50, 300)
	ref.SetName(3, "probe3")
	for _, from := range allReps {
		src := buildRep(t, ref, from)
		if nm := nameSliceOf(src); nm != nil {
			t.Fatalf("buildRep should not have names; test bug")
		}
		for _, to := range allReps {
			dst, err := Convert(src, to)
			if err != nil {
				t.Fatal(err)
			}
			if dst.Representation() != to {
				t.Fatalf("Convert(%v -> %v): got %v", from, to, dst.Representation())
			}
			if from == to && dst != src {
				t.Fatalf("Convert(%v -> %v): expected identity", from, to)
			}
			checkSameEdges(t, ref, dst)
		}
	}
	// Names survive conversion.
	named, err := Convert(ref, CSR)
	if err != nil {
		t.Fatal(err)
	}
	if named.Name(3) != "probe3" {
		t.Errorf("Convert dropped names: Name(3) = %q", named.Name(3))
	}
	back, err := Convert(named, Compressed)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name(3) != "probe3" {
		t.Errorf("second Convert dropped names: Name(3) = %q", back.Name(3))
	}
	if _, err := Convert(ref, Representation(99)); err == nil {
		t.Error("Convert accepted an unknown representation")
	}
}

func checkSameEdges(t *testing.T, ref *Graph, g Interface) {
	t.Helper()
	if g.N() != ref.N() || g.M() != ref.M() {
		t.Fatalf("%v: size mismatch", g.Representation())
	}
	ok := true
	ForEachEdge(g, func(u, v int) bool {
		if !ref.HasEdge(u, v) {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		t.Fatalf("%v: produced a non-edge", g.Representation())
	}
}

// TestAutoSelection pins the Auto rule, the smaller adjacency: a dense
// enough small graph and a large dense one stay dense, a large sparse
// one goes CSR.
func TestAutoSelection(t *testing.T) {
	// 1 000 vertices of density 0.2: CSR's 4(1 001 + 200 000) bytes are
	// more than the dense 1 000 x 16 words x 8 = 128 000.
	if got := chooseAuto(1000, 100000); got != Dense {
		t.Errorf("small graph: chose %v, want Dense", got)
	}
	if got := chooseAuto(50000, 50000*8); got != CSR {
		t.Errorf("large sparse: chose %v, want CSR", got)
	}
	if got := chooseAuto(50000, 50000*20000/2); got != Dense {
		t.Errorf("large dense: chose %v, want Dense", got)
	}
	// The byte formulas the rule compares.
	if DenseAdjacencyBytes(128) != 128*2*8 {
		t.Errorf("DenseAdjacencyBytes(128) = %d", DenseAdjacencyBytes(128))
	}
	if CSRAdjacencyBytes(10, 20) != 4*(10+1+40) {
		t.Errorf("CSRAdjacencyBytes(10,20) = %d", CSRAdjacencyBytes(10, 20))
	}
}

// TestBytesAccounting checks the measured footprints against the closed
// forms.
func TestBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := RandomGNM(rng, 300, 2000)
	if ref.Bytes() != DenseAdjacencyBytes(300) {
		t.Errorf("dense Bytes() = %d, want %d", ref.Bytes(), DenseAdjacencyBytes(300))
	}
	csr := buildRep(t, ref, CSR)
	if csr.Bytes() != CSRAdjacencyBytes(300, 2000) {
		t.Errorf("csr Bytes() = %d, want %d", csr.Bytes(), CSRAdjacencyBytes(300, 2000))
	}
	wahG := buildRep(t, ref, Compressed)
	if wahG.Bytes() <= 0 {
		t.Errorf("wah Bytes() = %d", wahG.Bytes())
	}
}

// TestDenseRangePanics pins the satellite bugfix: out-of-range vertices
// panic with a clear message, not a bare index-out-of-range.
func TestDenseRangePanics(t *testing.T) {
	g := New(5)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"AddEdge-high", func() { g.AddEdge(1, 5) }},
		{"AddEdge-neg", func() { g.AddEdge(-1, 2) }},
		{"HasEdge-high", func() { g.HasEdge(7, 0) }},
		{"RemoveEdge-high", func() { g.RemoveEdge(0, 9) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: no panic", tc.name)
					return
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "out of range [0,5)") || !strings.Contains(msg, "graph: vertex") {
					t.Errorf("%s: unhelpful panic %v", tc.name, r)
				}
			}()
			tc.fn()
		}()
	}
	// HasEdge on non-dense representations must report the same message.
	for _, rep := range []Representation{CSR, Compressed} {
		g, err := NewBuilder(5).WithRepresentation(rep).Freeze()
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				r := recover()
				msg, ok := r.(string)
				if r == nil || !ok || !strings.Contains(msg, "out of range [0,5)") {
					t.Errorf("%v HasEdge: unhelpful panic %v", rep, r)
				}
			}()
			g.HasEdge(0, 6)
		}()
	}
}
