package expt

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/sched"
	"repro/internal/simarch"
)

// Processor sweeps used by the figures.
var (
	fig5Procs = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	fig6Procs = []int{1, 2, 4, 8, 16, 32, 64}
	fig8Procs = []int{2, 4, 8, 16}
)

// initKladder maps the paper's Init_K = 18, 19, 20 (on the ω = 28 graph C)
// to a scaled spec: ω-10, ω-9, ω-8, floored at 3.
func initKladder(spec GraphSpec) []int {
	iks := []int{spec.Omega - 10, spec.Omega - 9, spec.Omega - 8}
	for i := range iks {
		if iks[i] < 3 {
			iks[i] = 3
		}
	}
	return iks
}

// fullWorkloadAnchor estimates the graph's full (Init_K = 3) workload
// from an Init_K = ω-10 trace, using the paper's own sequential-time
// ratio on graph C: 1,948 s (Init_K=3) / 343 s (Init_K=18).  Figures 5
// and 8 do not run Init_K = 3, but their machine is the same physical
// Altix that Figure 6/7's Init_K = 3 runs use, so its fixed overheads
// must be anchored to that full workload — otherwise the 256-processor
// degradation the paper reports cannot appear — and so must its rate:
// the ω-10 trace then runs in the paper's 343 s on one processor.
const fullWorkloadAnchor = simarch.ReferenceSeconds / 343.0

// anchoredAltix is the machine of Figures 5 and 8, tuned to the full
// workload an Init_K = ω-10 trace implies.
func anchoredAltix(tr *simarch.Trace) simarch.Machine {
	return simarch.DefaultAltix().TunedFor(float64(tr.TotalUnits) * fullWorkloadAnchor)
}

// Family is a set of traces over the same scaled graph C with one entry
// per Init_K, simulated under one machine so cross-Init_K comparisons
// (Figures 6 and 7) are meaningful.
type Family struct {
	Spec    GraphSpec
	Machine simarch.Machine
	Entries []FamilyEntry
}

// FamilyEntry is one Init_K's trace.
type FamilyEntry struct {
	InitK int
	Trace *simarch.Trace
}

// ScalingFamily collects the traces Figures 6 and 7 share, once: Init_K
// = 3 and the Init_K ladder, each Init_K once (small scales clamp the
// ladder onto 3).
func ScalingFamily(cfg Config) (*Family, error) {
	var iks []int
	for _, ik := range append([]int{3}, initKladder(cfg.normalized().specC())...) {
		if !slices.Contains(iks, ik) {
			iks = append(iks, ik)
		}
	}
	return CollectFamily(cfg, iks)
}

// CollectFamily builds one trace per Init_K over graph C and tunes the
// machine model to the family's largest workload, which then runs in
// the paper's ReferenceSeconds on one processor.
func CollectFamily(cfg Config, iks []int) (*Family, error) {
	cfg = cfg.normalized()
	spec := cfg.specC()
	g := Build(spec, cfg.Seed)
	fam := &Family{Spec: spec}
	var maxUnits int64
	for _, ik := range iks {
		tr, err := simarch.Collect(g, ik, 0)
		if err != nil {
			return nil, fmt.Errorf("expt: trace Init_K=%d: %w", ik, err)
		}
		fam.Entries = append(fam.Entries, FamilyEntry{InitK: ik, Trace: tr})
		maxUnits = max(maxUnits, tr.TotalUnits)
	}
	fam.Machine = simarch.DefaultAltix().TunedFor(float64(maxUnits))
	return fam, nil
}

// familySeconds is the note that says what a family's seconds are.
const familySeconds = "seconds are the paper's: the largest workload is 1948 s of work on one processor, plus its seed and overheads"

// orScalingFamily is fam, or the shared family when fam is nil.
func orScalingFamily(cfg Config, fam *Family) (*Family, error) {
	if fam != nil {
		return fam, nil
	}
	return ScalingFamily(cfg)
}

func (f *Family) simulate(ik int, p int) (*simarch.Result, error) {
	for _, e := range f.Entries {
		if e.InitK == ik {
			return simarch.Simulate(e.Trace, simarch.SimOptions{
				Machine:    f.Machine,
				Processors: p,
				Strategy:   simarch.Affinity,
			})
		}
	}
	return nil, fmt.Errorf("expt: no trace for Init_K=%d", ik)
}

// Fig5 reproduces Figure 5: average run times (over cfg.Reps repetitions
// with independently generated graphs) to enumerate maximal cliques from
// Init_K ∈ {ω-10, ω-9, ω-8} on graph C, across 1..256 simulated
// processors.  Verifiable shape: scaling to 64 processors, weaker at 128,
// degradation at 256; each +1 on Init_K roughly halves run time; standard
// deviations within ~5%.
func Fig5(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	spec := cfg.specC()
	iks := initKladder(spec)

	// Accumulate seconds per (ik, P) over repetitions.  Traces are
	// collected one at a time to bound memory; the machine is tuned on
	// the first repetition of the smallest Init_K (largest workload),
	// so every repetition runs on one machine.
	secs := make(map[int]map[int][]float64) // ik -> P -> samples
	var machine simarch.Machine
	for rep := 0; rep < cfg.Reps; rep++ {
		g := Build(spec, cfg.Seed+int64(rep))
		for _, ik := range iks {
			tr, err := simarch.Collect(g, ik, 0)
			if err != nil {
				return nil, err
			}
			if rep == 0 && ik == iks[0] {
				// The first trace is the ladder's largest workload
				// (Init_K = ω-10).
				machine = anchoredAltix(tr)
			}
			if secs[ik] == nil {
				secs[ik] = make(map[int][]float64)
			}
			for _, p := range fig5Procs {
				res, err := simarch.Simulate(tr, simarch.SimOptions{
					Machine:    machine,
					Processors: p,
					Strategy:   simarch.Affinity,
				})
				if err != nil {
					return nil, err
				}
				secs[ik][p] = append(secs[ik][p], res.Seconds)
			}
		}
	}

	t := &Table{
		Title: fmt.Sprintf("Figure 5: run times vs processors, graph C (n=%d), %d reps",
			spec.N, cfg.Reps),
		Headers: []string{"Init_K", "P", "mean (s)", "stddev (s)", "stddev %"},
	}
	for _, ik := range iks {
		for _, p := range fig5Procs {
			st := sched.Summarize(secs[ik][p])
			relPct := 0.0
			if st.Mean > 0 {
				relPct = 100 * st.StdDev / st.Mean
			}
			t.AddRow(fmt.Sprint(ik), fmt.Sprint(p),
				fmt.Sprintf("%.3f", st.Mean),
				fmt.Sprintf("%.3f", st.StdDev),
				fmt.Sprintf("%.1f%%", relPct))
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: scales well to 64 procs, still at 128, degrades at 256",
		"paper shape: Init_K+1 roughly halves the run time",
		"paper: standard deviations within 5% of run times (10 runs);",
		"here the simulator is deterministic, so variation across repetitions",
		"comes only from regenerating the synthetic graph",
		"seconds are the paper's: Init_K=ω-10 is 343 s of work on one processor, plus its seed and overheads")
	return t, nil
}

// Fig6 reproduces Figure 6: absolute speedup T(1)/T(p) and relative
// speedup T(p)/T(2p) for Init_K ∈ {3, ω-10, ω-9, ω-8} up to 64
// processors.  Verifiable shape: relative speedups hold near 1.8 across
// the doubling ladder; absolute speedups for Init_K=3 are the best.
func Fig6(cfg Config, fam *Family) (*Table, error) {
	fam, err := orScalingFamily(cfg, fam)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 6: absolute and relative speedups up to 64 processors (graph C)",
		Headers: []string{"Init_K", "P", "T(P) (s)", "absolute speedup", "relative T(P/2)/T(P)"},
	}
	for _, e := range fam.Entries {
		var t1, prev float64
		for _, p := range fig6Procs {
			res, err := fam.simulate(e.InitK, p)
			if err != nil {
				return nil, err
			}
			if p == 1 {
				t1 = res.Seconds
			}
			abs := t1 / res.Seconds
			rel := "-"
			if p > 1 {
				rel = fmt.Sprintf("%.2f", prev/res.Seconds)
			}
			t.AddRow(fmt.Sprint(e.InitK), fmt.Sprint(p),
				fmt.Sprintf("%.3f", res.Seconds),
				fmt.Sprintf("%.1f", abs), rel)
			prev = res.Seconds
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: relative speedups remain around 1.8 as processors double",
		"paper shape: absolute speedups for Init_K=3 exceed the other cases",
		familySeconds)
	return t, nil
}

// Fig7 reproduces Figure 7: the 256-processor absolute speedup grows with
// the sequential run time (paper: 22 at Init_K=20/98 s up to 51 at
// Init_K=3/1,948 s) — every problem size has its own optimal processor
// count.
func Fig7(cfg Config, fam *Family) (*Table, error) {
	fam, err := orScalingFamily(cfg, fam)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 7: 256-processor speedup vs sequential run time (graph C)",
		Headers: []string{"Init_K", "sequential T(1) (s)", "T(256) (s)", "absolute speedup"},
	}
	// Paper order: Init_K=20 (smallest work) first.
	order := slices.Clone(fam.Entries)
	slices.SortStableFunc(order, func(a, b FamilyEntry) int { return b.InitK - a.InitK })
	var lastSpeedup float64
	monotone := true
	for _, e := range order {
		r1, err := fam.simulate(e.InitK, 1)
		if err != nil {
			return nil, err
		}
		r256, err := fam.simulate(e.InitK, 256)
		if err != nil {
			return nil, err
		}
		speedup := r1.Seconds / r256.Seconds
		if speedup < lastSpeedup {
			monotone = false
		}
		lastSpeedup = speedup
		t.AddRow(fmt.Sprint(e.InitK),
			fmt.Sprintf("%.4f", r1.Seconds),
			fmt.Sprintf("%.4f", r256.Seconds),
			fmt.Sprintf("%.1f", speedup))
	}
	note := "paper shape: speedup at 256 processors increases with sequential time (22 -> 51)"
	if monotone {
		note += " [REPRODUCED: monotone]"
	} else {
		note += " [WARNING: not monotone in this run]"
	}
	t.Notes = append(t.Notes, note, familySeconds)
	return t, nil
}

// Fig8 reproduces Figure 8: the mean and standard deviation of per-
// processor execution times with the load balancer active, P ∈ {2,..,16},
// Init_K = ω-10.  The paper reports standard deviations within 10% of the
// mean.  A row measured on the real goroutine backend (P capped by the
// host) validates the simulated distribution.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	spec := cfg.specC()
	ik := initKladder(spec)[0]
	g := Build(spec, cfg.Seed)
	tr, err := simarch.Collect(g, ik, 0)
	if err != nil {
		return nil, err
	}
	machine := anchoredAltix(tr)

	t := &Table{
		Title:   fmt.Sprintf("Figure 8: per-processor load balance, Init_K=%d (graph C)", ik),
		Headers: []string{"P", "backend", "mean busy (s)", "stddev (s)", "stddev %"},
	}
	addRow := func(p int, backend string, busy []float64) {
		st := sched.Summarize(busy)
		rel := 0.0
		if st.Mean > 0 {
			rel = 100 * st.StdDev / st.Mean
		}
		t.AddRow(fmt.Sprint(p), backend,
			fmt.Sprintf("%.3f", st.Mean),
			fmt.Sprintf("%.4f", st.StdDev),
			fmt.Sprintf("%.1f%%", rel))
	}
	for _, p := range fig8Procs {
		res, err := simarch.Simulate(tr, simarch.SimOptions{
			Machine:    machine,
			Processors: p,
			Strategy:   simarch.Affinity,
		})
		if err != nil {
			return nil, err
		}
		addRow(p, "simulated", res.PerWorkerSeconds(machine.UnitsPerSecond))
	}

	// Real-backend validation at the host's parallelism.
	realP := runtime.GOMAXPROCS(0)
	if realP > 4 {
		realP = 4
	}
	if realP >= 2 {
		res, err := hybrid.Enumerate(g, enumcfg.Config{
			Ctx:      cfg.Ctx,
			Workers:  realP,
			Lo:       ik,
			Strategy: enumcfg.Affinity,
		}, core.Hooks{})
		if err != nil {
			return nil, err
		}
		addRow(realP, "goroutines", res.WorkerBusy)
	}
	t.Notes = append(t.Notes,
		"paper: standard deviations within 10% of average run times",
		"the goroutine row is measured on this host, in its seconds, not simulated")
	return t, nil
}

// buildForSeed exists for tests needing the same graph the experiments
// use.
func buildForSeed(cfg Config) *graph.Graph {
	cfg = cfg.normalized()
	return Build(cfg.specC(), cfg.Seed)
}
