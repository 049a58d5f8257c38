package graph

import (
	"math/rand"
	"testing"

	"repro/internal/membudget"
)

// TestLocalRows walks every centre of a graph with a hub wider than 128
// vertices, on every representation: N(v) is v's sorted neighbourhood,
// a member's row is its adjacency inside N(v) whether it is built by
// probing (Dense) or by walking (CSR, WAH), a vertex outside N(v) maps
// to -1, Scatter maps local sets back, and the governor holds exactly
// what the universe grew by.  Bounded, the hub's 199 rows of four words
// outgrow the 4n-byte bound, so its rows are forgotten and rebuilt, and
// each must still be right when it is read again.
func TestLocalRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := RandomGNP(rng, 300, 0.05)
	for v := 1; v < 200; v++ {
		ref.AddEdge(0, v)
	}
	for _, c := range []struct {
		rep     Representation
		bounded bool
	}{{Dense, false}, {CSR, false}, {Compressed, false}, {Dense, true}, {CSR, true}} {
		rep := c.rep
		g := buildRep(t, ref, rep)
		gov := membudget.New(0)
		u := NewLocal(g)
		u.Bounded = c.bounded
		base := u.Bytes()
		for v := range g.N() {
			u.Enter(v, gov)
			if got, want := len(u.Nbr), g.Degree(v); got != want || u.W != (want+63)/64 {
				t.Fatalf("%v: N(%d) has %d members in %d words, want %d", rep, v, got, u.W, want)
			}
			for i := range 2 * len(u.Nbr) { // twice: the second pass reads rows built, or forgotten, in the first
				l := i % len(u.Nbr)
				x := u.Nbr[l]
				if !g.HasEdge(v, int(x)) || (l > 0 && u.Nbr[l-1] >= x) {
					t.Fatalf("%v: N(%d) = %v is not the sorted neighbourhood", rep, v, u.Nbr)
				}
				row := u.Row(l)
				for m, y := range u.Nbr {
					if in := row[m>>6]&(1<<(m&63)) != 0; in != g.HasEdge(int(x), int(y)) {
						t.Fatalf("%v: centre %d: row of %d says %v for %d", rep, v, x, in, y)
					}
				}
			}
			if v > 0 && !g.HasEdge(v, 0) && u.ID(0) != -1 {
				t.Fatalf("%v: vertex 0 maps into N(%d)", rep, v)
			}
		}
		if rows := 8 * cap(u.Rows); c.bounded && rows > 4*g.N() {
			t.Errorf("%v: bounded rows take %d bytes, over the rank table's %d", rep, rows, 4*g.N())
		}
		if gov.Used() != u.Bytes()-base {
			t.Errorf("%v: governor holds %d, the universe grew by %d", rep, gov.Used(), u.Bytes()-base)
		}
	}
}
