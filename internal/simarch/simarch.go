// Package simarch simulates the paper's evaluation platform — an SGI
// Altix 3700 with 256 processors sharing 2 TB of ccNUMA memory — so that
// the scaling experiments of Figures 5–8 can be regenerated on any host:
// Simulate is behind expt.Fig5 (run time vs processors), Fig6 (speedups),
// Fig7 (256-processor speedup vs problem size) and Fig8 (per-processor
// load balance), and CollectMode's per-level trace is also what
// expt.Fig9 (memory per clique size) prints.  It exists for those
// figures only; no enumeration backend imports it.
//
// The simulation is replay-based, not synthetic: Collect runs the real
// Clique Enumerator once, instrumented, and records the exact work (in
// abstract cost units: bitmap-AND words, pair checks, maximality probes)
// of every sub-list at every level, together with the sub-list parentage
// needed to model memory affinity.  Simulate then replays the level-
// synchronous schedule for any processor count P: sub-lists are assigned
// by the same centralized load balancer the real backend uses (package
// sched), transferred sub-lists pay a remote-memory penalty, and every
// level ends with a barrier plus scheduler collect/redistribute costs.
// Per-level makespans add up to the simulated run time; per-processor
// busy times feed the load-balance statistics of Figure 8.
//
// Because the cost trace comes from a real execution of the real
// algorithm, the simulated curves inherit the true work distribution —
// the skew between sub-lists, the level profile, the shrinking
// parallelism near the top of the clique ladder — and the machine model
// contributes only the overheads (synchronization, scheduling, NUMA),
// which is exactly the part of the paper's platform we cannot reproduce
// physically.
//
// Seconds come from the paper, not from the host: DefaultAltix runs
// ReferenceUnits in ReferenceSeconds, the paper's 1,948 sequential
// seconds for graph C from Init_K = 3, and a machine tuned to another
// workload keeps that ratio.  Nothing here reads a clock, so a figure
// is a function of graph, seed and counted units alone.  See DESIGN.md
// §9.
package simarch

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
)

// LevelTrace records one level of the instrumented run.
type LevelTrace struct {
	K        int     // clique size of the candidates processed
	Costs    []int64 // per-sub-list processing cost, in units
	Parents  []int32 // index of each sub-list's parent in the previous level; -1 at the seed level
	Maximal  int64   // maximal (K+1)-cliques emitted by this level
	Sublists int     // len(Costs)
	Cliques  int64   // M[K] consumed
	Bytes    int64   // paper-formula bytes of the level (core.Level.PaperBytes)
}

// Trace is a complete instrumented run.
type Trace struct {
	Levels         []LevelTrace
	SeedUnits      int64 // estimated cost of building the seed level
	TotalUnits     int64 // Σ level costs (excluding seed)
	MaximalCliques int64
	MaxCliqueSize  int
	N              int // graph order (for reporting)
}

// CollectMode runs the Clique Enumerator sequentially with
// instrumentation, in the given bitmap mode, and returns the cost trace;
// lo/hi follow enumcfg.Config semantics.  core.CNStore is the machine the
// paper measured (a bitmap resident per sub-list, no rebuild ANDs): the
// traces behind its figures name it.  The default core.CNRecompute is
// how the largest paper-scale traces (Init_K = 3 on graph C) fit on
// hosts far below 2 TB; the recorded costs and level bytes are those of
// the mode run, exactly as a real machine running it would see them.
func CollectMode(g *graph.Graph, lo, hi int, mode core.CNMode) (*Trace, error) {
	if lo == 0 {
		lo = 2
	}
	if lo < 2 {
		return nil, fmt.Errorf("simarch: lo %d < 2", lo)
	}
	if hi != 0 && hi < lo {
		return nil, fmt.Errorf("simarch: hi %d < lo %d", hi, lo)
	}
	tr := &Trace{N: g.N()}

	// The trace's totals are counted like a run's (core.Result): the seed
	// phase through a tally, the levels from their own counts.
	var seed clique.Tally
	var lvl *core.Level
	if lo <= 2 {
		// An edge seed that nothing cancels cannot fail.
		lvl, _, _ = core.Seed(context.TODO(), g, lo, mode, 1, false, nil, nil)
		tr.SeedUnits = int64(g.M()) // one pass over the edge list
	} else {
		var err error
		lvl, tr.SeedUnits, err = seedFromKInstrumented(g, lo, mode, &seed)
		if err != nil {
			return nil, err
		}
	}
	tr.MaximalCliques, tr.MaxCliqueSize = seed.Count, seed.MaxSize

	pool := bitset.NewPool(g.N())
	b := core.NewBuilderMode(g, mode, pool)
	var parents []int32 // parents of the CURRENT level's sub-lists
	for len(lvl.Sub) > 0 && (hi == 0 || lvl.K+1 <= hi) {
		lt := LevelTrace{
			K:        lvl.K,
			Costs:    make([]int64, 0, lvl.Sublists()),
			Parents:  parents,
			Sublists: lvl.Sublists(),
			Cliques:  lvl.Cliques(),
			Bytes:    lvl.PaperBytes(),
		}
		b.Reset()
		var nextParents []int32
		for s := range lvl.All() {
			beforeUnits := b.Cost.Units()
			beforeKept := b.Kept
			b.ProcessSubList(s, nil)
			lt.Costs = append(lt.Costs, max(b.Cost.Units()-beforeUnits, 1))
			for range b.Kept - beforeKept {
				nextParents = append(nextParents, int32(len(lt.Costs)-1))
			}
		}
		lt.Maximal = b.Maximal
		tr.MaximalCliques += lt.Maximal
		if lt.Maximal > 0 {
			tr.MaxCliqueSize = lvl.K + 1
		}
		for _, c := range lt.Costs {
			tr.TotalUnits += c
		}
		tr.Levels = append(tr.Levels, lt)
		lvl = b.Level(lvl.K + 1)
		parents = nextParents
	}
	return tr, nil
}

// seedFromKInstrumented wraps core.SeedFromKMode and estimates the seeding
// cost in the same units as level processing: one word-pass per search
// node of the k-clique enumerator.
func seedFromKInstrumented(g *graph.Graph, lo int, mode core.CNMode, r clique.Reporter) (*core.Level, int64, error) {
	lvl, st, err := core.SeedFromKMode(g, lo, mode, r)
	if err != nil {
		return nil, 0, err
	}
	words := int64((g.N() + 63) / 64)
	return lvl, st.SearchNodes * words, nil
}
