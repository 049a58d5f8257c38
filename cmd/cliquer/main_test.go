package main

import (
	"strings"
	"testing"
	"time"

	"repro"
)

// TestPrintSummary pins the summary's first line: a bounded run prints
// its closed range, an unbounded one (-no-bound) the
// open range from lo, never a literal 0 as the largest size.
func TestPrintSummary(t *testing.T) {
	st := &repro.Stats{Backend: "sequential", MaximalCliques: 12, MaxCliqueSize: 7,
		Levels: make([]repro.LevelStats, 5), Elapsed: 1500 * time.Millisecond}
	for _, c := range []struct {
		lo, hi int
		want   string
	}{
		{3, 0, "done (sequential): 12 maximal cliques in [3,∞), max size 7, 5 levels, 1.500s\n"},
		{3, 9, "done (sequential): 12 maximal cliques in [3,9], max size 7, 5 levels, 1.500s\n"},
		{1, 0, "done (sequential): 12 maximal cliques in [1,∞), max size 7, 5 levels, 1.500s\n"},
	} {
		var out strings.Builder
		printSummary(&out, "done", st, options{lo: c.lo, hi: c.hi, noBound: c.hi == 0})
		if out.String() != c.want {
			t.Errorf("lo %d hi %d: summary %q, want %q", c.lo, c.hi, out.String(), c.want)
		}
	}
}
