// Package clique defines the vocabulary shared by every clique-enumeration
// algorithm in the framework: the canonical clique representation, the
// reporting interfaces the enumerators emit through, and collectors used
// by tests, tools and the cross-validation harness.
package clique

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Clique is a set of vertices in canonical (strictly increasing) order.
type Clique []int

// Clone returns an owned copy of the clique.  Enumerators emit borrowed
// slices (the backing array is reused for the next emission); a reporter
// that retains cliques past its Emit call must Clone them first.
func (c Clique) Clone() Clique {
	if c == nil {
		return nil
	}
	return append(Clique(nil), c...)
}

// Canonical reports whether the clique is in strictly increasing order.
func (c Clique) Canonical() bool {
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			return false
		}
	}
	return true
}

// Key returns a string key identifying the clique, usable as a map key.
func (c Clique) Key() string {
	var sb strings.Builder
	for i, v := range c {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	return sb.String()
}

// Compare orders cliques by size, then lexicographically — the
// "non-decreasing order" the Clique Enumerator guarantees, refined to a
// total order for deterministic output.
func Compare(a, b Clique) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Normalize sorts the vertices into canonical order in place and returns
// the clique for chaining.
func Normalize(c Clique) Clique {
	sort.Ints(c)
	return c
}

// Reporter receives maximal cliques as they are discovered.  Emit must
// treat the slice as borrowed: enumerators reuse the backing array, so
// implementations that retain the clique must copy it.
type Reporter interface {
	Emit(c Clique)
}

// ReporterFunc adapts a function to the Reporter interface.
type ReporterFunc func(c Clique)

// Emit calls the adapted function.
func (f ReporterFunc) Emit(c Clique) { f(c) }

// Tally is the seed-phase reporter: it counts the cliques it is handed,
// keeps the largest size, and forwards each to Next (nil = count only).
// It is for what is reported before the first level — the maximal
// Lo-cliques a seeder finds, the 1-/2-cliques of ReportSmall; from the
// first level on the level records carry the counts (core.Result), so no
// level's emissions ever pass through a counting wrapper.
type Tally struct {
	Next    Reporter
	Count   int64
	MaxSize int
}

// Emit counts c and forwards it.
func (t *Tally) Emit(c Clique) {
	t.Count++
	t.MaxSize = max(t.MaxSize, len(c))
	if t.Next != nil {
		t.Next.Emit(c)
	}
}

// Collector is a Reporter that copies and stores every emitted clique.
type Collector struct {
	Cliques []Clique
}

// Emit stores a copy of c.
func (col *Collector) Emit(c Clique) {
	col.Cliques = append(col.Cliques, append(Clique(nil), c...))
}

// Sort orders the collected cliques by size then lexicographically.
func (col *Collector) Sort() {
	sort.Slice(col.Cliques, func(i, j int) bool {
		return Compare(col.Cliques[i], col.Cliques[j]) < 0
	})
}

// Counter is a Reporter that only counts cliques by size, for runs whose
// full output would not fit in memory (the paper's terabyte-scale cases).
type Counter struct {
	BySize map[int]int64
	Total  int64
}

// NewCounter returns an empty Counter.
func NewCounter() *Counter { return &Counter{BySize: make(map[int]int64)} }

// Emit counts c.
func (ct *Counter) Emit(c Clique) {
	ct.BySize[len(c)]++
	ct.Total++
}

// MaxSize returns the largest clique size seen, or 0.
func (ct *Counter) MaxSize() int {
	max := 0
	for k := range ct.BySize {
		if k > max {
			max = k
		}
	}
	return max
}

// Validate checks that every collected clique is a maximal clique of g,
// canonical, and unique; and that sizes lie in [lo, hi] (pass hi = 0 to
// skip the upper check).  It returns a descriptive error for the first
// violation — the workhorse of the cross-validation tests.
func Validate(g *graph.Graph, cliques []Clique, lo, hi int) error {
	seen := make(map[string]bool, len(cliques))
	for i, c := range cliques {
		if !c.Canonical() {
			return fmt.Errorf("clique %d %v not canonical", i, c)
		}
		if len(c) < lo {
			return fmt.Errorf("clique %d %v smaller than lower bound %d", i, c, lo)
		}
		if hi > 0 && len(c) > hi {
			return fmt.Errorf("clique %d %v larger than upper bound %d", i, c, hi)
		}
		key := c.Key()
		if seen[key] {
			return fmt.Errorf("clique %v emitted twice", c)
		}
		seen[key] = true
		if !graph.IsClique(g, c) {
			return fmt.Errorf("%v is not a clique", c)
		}
		if !graph.IsMaximalClique(g, c) {
			return fmt.Errorf("%v is not maximal", c)
		}
	}
	return nil
}

// SameSets reports whether two collections contain exactly the same
// cliques, and if not, returns an example difference.
func SameSets(a, b []Clique) (bool, string) {
	am := make(map[string]bool, len(a))
	for _, c := range a {
		am[c.Key()] = true
	}
	bm := make(map[string]bool, len(b))
	for _, c := range b {
		bm[c.Key()] = true
	}
	for k := range am {
		if !bm[k] {
			return false, fmt.Sprintf("clique {%s} only in first set", k)
		}
	}
	for k := range bm {
		if !am[k] {
			return false, fmt.Sprintf("clique {%s} only in second set", k)
		}
	}
	return true, ""
}
