package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/graph"
)

// TestJoinWordIsJoinWords: joinWord is joinWords at one word a row, kept
// for speed alone.  Over every level of a graph whose groups are all one
// word wide, each record admitted by the builder's Admitter and then
// joined by one of the two, they emit the same cliques and keep the same
// sub-lists (with the same stored bitmaps under CNStore) and the same
// counters.
func TestJoinWordIsJoinWords(t *testing.T) {
	g := graph.RandomGNP(rand.New(rand.NewSource(365)), 60, 0.35)
	dump := func(lvl *Level) []string {
		var out []string
		for s := range lvl.All() {
			var cn []int
			if s.CN != nil {
				cn = s.CN.Indices()
			}
			out = append(out, fmt.Sprint(s.Prefix, s.Tails, cn))
		}
		return out
	}
	for _, mode := range []CNMode{CNRecompute, CNStore} {
		lvl, _, err := Seed(context.Background(), g, 3, mode, 1, false, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		word := NewBuilderMode(g, mode, bitset.NewPool(g.N()))
		wide := NewBuilderMode(g, mode, bitset.NewPool(g.N()))
		join := func(b *Builder, s *SubList, r clique.Reporter, one bool) {
			a, err := b.adm.Admit(s, b.Gov)
			if err != nil {
				t.Fatalf("mode %d: %v|%v: %v", mode, s.Prefix, s.Tails, err)
			}
			if a.W != 1 {
				t.Fatalf("mode %d: %v|%v: %d words a row", mode, s.Prefix, s.Tails, a.W)
			}
			b.book(a) // what Join does before it picks the one-word or the w-word join
			if one {
				b.joinWord(a, r)
			} else {
				b.joinWords(a, r)
			}
		}
		for k := lvl.K; lvl.Sublists() > 0; k++ {
			word.Reset()
			wide.Reset()
			var byWord, byWords clique.Collector
			for s := range lvl.All() {
				join(word, s, &byWord, true)
				join(wide, s, &byWords, false)
			}
			if !slices.EqualFunc(byWord.Cliques, byWords.Cliques, func(a, b clique.Clique) bool { return slices.Equal(a, b) }) {
				t.Fatalf("mode %d, level %d: joinWord emitted %v, joinWords %v", mode, k, byWord.Cliques, byWords.Cliques)
			}
			if word.Kept != wide.Kept || word.Dropped != wide.Dropped || word.Maximal != wide.Maximal || word.Cost != wide.Cost {
				t.Fatalf("mode %d, level %d: joinWord kept %d dropped %d maximal %d cost %+v, joinWords %d %d %d %+v",
					mode, k, word.Kept, word.Dropped, word.Maximal, word.Cost, wide.Kept, wide.Dropped, wide.Maximal, wide.Cost)
			}
			next := word.Level(k + 1)
			if a, b := dump(next), dump(wide.Level(k+1)); !slices.Equal(a, b) {
				t.Fatalf("mode %d, level %d: joinWord kept %v, joinWords %v", mode, k, a, b)
			}
			lvl = next
		}
	}
}
