// Package kose implements the maximal-clique enumeration algorithm of
// Kose et al. (Bioinformatics 17:1198–1208, 2001) as described in
// Section 2.3 of Zhang et al. (SC 2005) — the "Kose RAM" baseline of the
// paper's Table 1, which expt.Table1 regenerates; that comparison (and
// the cross-validation tests that use it as an independent oracle) is
// the package's only reason to exist.
//
// The algorithm takes all edges (2-cliques) in non-repeating canonical
// order, generates all (k+1)-cliques from the k-cliques, then declares a
// k-clique maximal iff it is not contained in any (k+1)-clique, and
// repeats until no (k+1)-cliques are generated.  Its two structural
// weaknesses — storing *every* k-clique and (k+1)-clique, and deciding
// maximality by searching the (k+1)-clique list — are what the Clique
// Enumerator removes; they are kept here faithfully so the Table 1
// comparison measures what the paper measured.
//
// A FastContainment option replaces the quadratic containment scan with a
// hash-marking pass.  It is NOT part of the baseline (the paper's Kose
// RAM numbers come from the scan); it exists so correctness tests can
// cross-validate on graphs where the faithful scan would dominate test
// time.  Memory behavior is unchanged either way.
package kose

import (
	"repro/internal/clique"
	"repro/internal/graph"
)

// Options configures Enumerate.
type Options struct {
	// Reporter receives maximal cliques of size >= 3 in non-decreasing
	// size order (sizes 1-2 are outside the paper's experiments, matching
	// package core's default).  May be nil.
	Reporter clique.Reporter
	// FastContainment replaces the faithful O(M[k] * M[k+1] * k)
	// containment scan with hash marking.  See the package comment.
	FastContainment bool
	// MaxK, when positive, stops after generating cliques of size MaxK.
	MaxK int
}

// Stats reports counters from a run.
type Stats struct {
	Maximal        int64   // maximal cliques reported
	PeakCliques    int64   // max M[k] + M[k+1] held simultaneously
	PeakBytes      int64   // vertex-index bytes for that peak (c = 4)
	ContainChecks  int64   // k-clique vs (k+1)-clique containment tests
	GeneratedTotal int64   // cliques generated across all levels
	LevelCliques   []int64 // M[k] for k = 2, 3, ...
}

// cliqueList is a flat, canonical-order list of same-size cliques.
type cliqueList struct {
	k    int
	flat []uint32 // len = k * count
}

func (cl *cliqueList) count() int { return len(cl.flat) / cl.k }

func (cl *cliqueList) at(i int) []uint32 {
	return cl.flat[i*cl.k : (i+1)*cl.k]
}

// Enumerate runs Kose RAM over g and returns statistics.
func Enumerate(g *graph.Graph, opts Options) Stats {
	var st Stats

	// Level 2: all edges in canonical order.
	cur := &cliqueList{k: 2}
	graph.ForEachEdge(g, func(u, v int) bool {
		cur.flat = append(cur.flat, uint32(u), uint32(v))
		return true
	})
	st.LevelCliques = append(st.LevelCliques, int64(cur.count()))

	emitBuf := make(clique.Clique, 0, 16)
	for cur.count() > 0 {
		if opts.MaxK > 0 && cur.k >= opts.MaxK {
			break
		}
		next := generate(g, cur)
		st.GeneratedTotal += int64(next.count())
		st.LevelCliques = append(st.LevelCliques, int64(next.count()))

		held := int64(cur.count() + next.count())
		if held > st.PeakCliques {
			st.PeakCliques = held
		}
		if bytes := int64(cur.count()*cur.k+next.count()*next.k) * 4; bytes > st.PeakBytes {
			st.PeakBytes = bytes
		}

		// Maximality: a k-clique is maximal iff it is a subgraph of no
		// (k+1)-clique.  Sizes below 3 are not reported (paper range).
		maximal := containmentFilter(cur, next, opts.FastContainment, &st)
		for _, idx := range maximal {
			if cur.k < 3 {
				break
			}
			st.Maximal++
			if opts.Reporter != nil {
				emitBuf = emitBuf[:0]
				for _, v := range cur.at(idx) {
					emitBuf = append(emitBuf, int(v))
				}
				opts.Reporter.Emit(emitBuf)
			}
		}
		cur = next
	}

	// Trailing level.  When the loop ended because no (k+1)-cliques were
	// generated, every remaining clique is maximal by definition; when a
	// MaxK stop cut generation short, non-maximal cliques may remain, so
	// verify each with the common-neighbor test.
	if cur.count() > 0 && cur.k >= 3 {
		stoppedEarly := opts.MaxK > 0 && cur.k >= opts.MaxK
		for i := 0; i < cur.count(); i++ {
			emitBuf = emitBuf[:0]
			for _, v := range cur.at(i) {
				emitBuf = append(emitBuf, int(v))
			}
			if stoppedEarly && !graph.IsMaximalClique(g, emitBuf) {
				continue
			}
			st.Maximal++
			if opts.Reporter != nil {
				opts.Reporter.Emit(emitBuf)
			}
		}
	}
	return st
}

// generate joins k-cliques sharing their first k-1 vertices into
// (k+1)-cliques.  The input is in canonical order, so sharing cliques are
// consecutive; the output is again canonical.
func generate(g *graph.Graph, cur *cliqueList) *cliqueList {
	next := &cliqueList{k: cur.k + 1}
	n := cur.count()
	for start := 0; start < n; {
		end := start + 1
		for end < n && samePrefix(cur.at(start), cur.at(end)) {
			end++
		}
		// Join tails pairwise within the run [start, end).
		for i := start; i < end-1; i++ {
			ci := cur.at(i)
			v := int(ci[cur.k-1])
			for j := i + 1; j < end; j++ {
				u := int(cur.at(j)[cur.k-1])
				if g.HasEdge(v, u) {
					next.flat = append(next.flat, ci...)
					next.flat = append(next.flat, uint32(u))
				}
			}
		}
		start = end
	}
	return next
}

func samePrefix(a, b []uint32) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// containmentFilter returns the indices of cur's cliques that appear in
// no clique of next.
func containmentFilter(cur, next *cliqueList, fast bool, st *Stats) []int {
	if fast {
		return fastFilter(cur, next)
	}
	var maximal []int
	for i := 0; i < cur.count(); i++ {
		c := cur.at(i)
		contained := false
		for j := 0; j < next.count(); j++ {
			st.ContainChecks++
			if isSubset(c, next.at(j)) {
				contained = true
				break
			}
		}
		if !contained {
			maximal = append(maximal, i)
		}
	}
	return maximal
}

// isSubset reports c ⊆ d for sorted slices with len(d) = len(c)+1.
func isSubset(c, d []uint32) bool {
	skipped := false
	ci := 0
	for di := 0; di < len(d) && ci < len(c); di++ {
		switch {
		case d[di] == c[ci]:
			ci++
		case skipped:
			return false
		default:
			skipped = true
		}
	}
	return ci == len(c)
}

// fastFilter marks every k-subset-by-deletion of every (k+1)-clique in a
// hash set, then reports unmarked k-cliques.  Same answers, different
// complexity; used by tests only.
func fastFilter(cur, next *cliqueList) []int {
	marked := make(map[string]bool, next.count()*next.k)
	keyBuf := make([]byte, 0, 64)
	key := func(vs []uint32, skip int) string {
		keyBuf = keyBuf[:0]
		for i, v := range vs {
			if i == skip {
				continue
			}
			keyBuf = append(keyBuf,
				byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return string(keyBuf)
	}
	for j := 0; j < next.count(); j++ {
		d := next.at(j)
		for skip := range d {
			marked[key(d, skip)] = true
		}
	}
	var maximal []int
	for i := 0; i < cur.count(); i++ {
		if !marked[key(cur.at(i), -1)] {
			maximal = append(maximal, i)
		}
	}
	return maximal
}

// MaximalCliques is a convenience wrapper returning all maximal cliques
// of size >= 3, sorted.
func MaximalCliques(g *graph.Graph, fast bool) []clique.Clique {
	col := &clique.Collector{}
	Enumerate(g, Options{Reporter: col, FastContainment: fast})
	col.Sort()
	return col.Cliques
}
