package simarch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/sched"
)

func traceGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.PlantedGraph(rng, 120, []graph.PlantedCliqueSpec{
		{Size: 12}, {Size: 8, Overlap: 4},
	}, 250)
}

func collect(t *testing.T, g *graph.Graph, lo, hi int) *Trace {
	t.Helper()
	tr, err := Collect(g, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCollectMatchesCoreCounts(t *testing.T) {
	g := traceGraph(71)
	tr := collect(t, g, 2, 0)
	res, err := hybrid.Enumerate(g, enumcfg.Config{}, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaximalCliques != res.MaximalCliques {
		t.Errorf("trace maximal %d, core %d", tr.MaximalCliques, res.MaximalCliques)
	}
	if tr.MaxCliqueSize != res.MaxCliqueSize {
		t.Errorf("trace max size %d, core %d", tr.MaxCliqueSize, res.MaxCliqueSize)
	}
	if len(tr.Levels) != len(res.Levels) {
		t.Fatalf("trace has %d levels, core %d", len(tr.Levels), len(res.Levels))
	}
	for i, lt := range tr.Levels {
		if lt.Sublists != res.Levels[i].Sublists {
			t.Errorf("level %d sublists %d vs %d", i, lt.Sublists, res.Levels[i].Sublists)
		}
		if lt.Maximal != res.Levels[i].Maximal {
			t.Errorf("level %d maximal %d vs %d", i, lt.Maximal, res.Levels[i].Maximal)
		}
		// The paper's machine keeps every prefix's bitmap: it does the
		// run's work less the rebuilds.
		var units int64
		for _, c := range lt.Costs {
			units += c
		}
		if c := res.Levels[i].Cost; units != c.Units()-c.Rebuild {
			t.Errorf("level %d charges %d units, the run's %+v less its rebuild is %d", i, units, c, c.Units()-c.Rebuild)
		}
	}
}

func TestCollectParentage(t *testing.T) {
	g := traceGraph(72)
	tr := collect(t, g, 2, 0)
	if tr.Levels[0].Parents != nil {
		t.Error("seed level has parents")
	}
	for li := 1; li < len(tr.Levels); li++ {
		lt := tr.Levels[li]
		if len(lt.Parents) != len(lt.Costs) {
			t.Fatalf("level %d: %d parents for %d sublists",
				li, len(lt.Parents), len(lt.Costs))
		}
		prev := tr.Levels[li-1]
		lastParent := int32(-1)
		for _, par := range lt.Parents {
			if int(par) < 0 || int(par) >= prev.Sublists {
				t.Fatalf("level %d: parent %d out of range", li, par)
			}
			if par < lastParent {
				t.Fatalf("level %d: parents not monotone", li)
			}
			lastParent = par
		}
	}
}

func TestCollectSeeded(t *testing.T) {
	g := traceGraph(73)
	full := collect(t, g, 2, 0)
	seeded := collect(t, g, 6, 0)
	if seeded.SeedUnits == 0 {
		t.Error("seeded trace has zero seed cost")
	}
	// Maximal cliques of size >= 6 must match between the two traces.
	var want int64
	res, _ := hybrid.Enumerate(g, enumcfg.Config{Lo: 6}, core.Hooks{})
	want = res.MaximalCliques
	if seeded.MaximalCliques != want {
		t.Errorf("seeded trace maximal %d, want %d", seeded.MaximalCliques, want)
	}
	if full.TotalUnits <= seeded.TotalUnits {
		t.Errorf("full run %d units <= seeded %d", full.TotalUnits, seeded.TotalUnits)
	}
}

func TestCollectErrors(t *testing.T) {
	g := graph.New(4)
	if _, err := Collect(g, 1, 0); err == nil {
		t.Error("lo=1 accepted")
	}
	if _, err := Collect(g, 5, 4); err == nil {
		t.Error("hi < lo accepted")
	}
}

func simulate(t *testing.T, tr *Trace, p int, strategy Strategy) *Result {
	t.Helper()
	// Scale the machine overheads to the tiny test workload so the test
	// exercises the same overhead-to-work regime as paper-scale runs.
	res, err := Simulate(tr, SimOptions{
		Machine:    DefaultAltix().TunedFor(float64(tr.TotalUnits)),
		Processors: p,
		Strategy:   strategy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateOneProcessorEqualsWork(t *testing.T) {
	g := traceGraph(74)
	tr := collect(t, g, 2, 0)
	res := simulate(t, tr, 1, Affinity)
	// With P=1 everything is local and busy time equals total work.
	if got, want := res.PerWorkerUnits[0], float64(tr.TotalUnits); got != want {
		t.Errorf("P=1 busy units %.0f, want %.0f", got, want)
	}
	if res.Transfers != 0 {
		t.Errorf("P=1 transfers = %d", res.Transfers)
	}
	if res.Units <= float64(tr.TotalUnits) {
		t.Error("overheads missing from total")
	}
}

func TestSimulateSpeedupShape(t *testing.T) {
	g := traceGraph(75)
	tr := collect(t, g, 2, 0)
	var prev float64
	times := map[int]float64{}
	for _, p := range []int{1, 2, 4, 8} {
		res := simulate(t, tr, p, Affinity)
		times[p] = res.Units
		if prev > 0 && res.Units >= prev {
			t.Errorf("P=%d did not speed up: %.0f >= %.0f", p, res.Units, prev)
		}
		prev = res.Units
	}
	// Relative speedup for small P must be near 2 (the work dominates).
	rel := times[1] / times[2]
	if rel < 1.4 || rel > 2.05 {
		t.Errorf("relative speedup 1->2 = %.2f, want ~1.4-2.0", rel)
	}
}

func TestSimulateWorkConservation(t *testing.T) {
	// Busy units across workers must equal total work, scaled only by
	// the remote penalty on transferred items.
	g := traceGraph(76)
	tr := collect(t, g, 2, 0)
	for _, p := range []int{2, 5, 16} {
		res := simulate(t, tr, p, Contiguous) // no transfers, no penalty
		var sum float64
		for _, u := range res.PerWorkerUnits {
			sum += u
		}
		if math.Abs(sum-float64(tr.TotalUnits)) > 1e-6*float64(tr.TotalUnits)+1 {
			t.Errorf("P=%d: busy sum %.0f != work %d", p, sum, tr.TotalUnits)
		}
		if res.Transfers != 0 {
			t.Errorf("contiguous strategy transferred %d", res.Transfers)
		}
	}
}

func TestSimulateRemotePenaltyCharged(t *testing.T) {
	g := traceGraph(77)
	tr := collect(t, g, 2, 0)
	aff, err := Simulate(tr, SimOptions{
		Machine:    DefaultAltix(),
		Processors: 8,
		Strategy:   Affinity,
		Policy:     sched.Policy{RelTolerance: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if aff.Transfers == 0 {
		t.Skip("no transfers under tight policy; graph too uniform")
	}
	var busySum float64
	for _, u := range aff.PerWorkerUnits {
		busySum += u
	}
	if busySum <= float64(tr.TotalUnits) {
		t.Errorf("remote penalty not charged: busy %.0f <= work %d",
			busySum, tr.TotalUnits)
	}
}

func TestSimulateOverheadDominatesAtHugeP(t *testing.T) {
	// The paper's 256-processor degradation: when the per-level
	// synchronization overhead is large relative to the per-processor
	// work share, adding processors slows the run down.  Use the
	// unscaled (paper-scale) machine against the small test trace to
	// put the simulation deep in that regime.
	g := traceGraph(78)
	tr := collect(t, g, 2, 0)
	unscaled := func(p int) float64 {
		res, err := Simulate(tr, SimOptions{
			Machine:    DefaultAltix(),
			Processors: p,
			Strategy:   Affinity,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Units
	}
	t64 := unscaled(64)
	t256 := unscaled(256)
	if t256 <= t64 {
		t.Errorf("small workload: P=256 (%.0f) not slower than P=64 (%.0f)",
			t256, t64)
	}
}

func TestSimulateLoadBalanceQuality(t *testing.T) {
	g := traceGraph(79)
	tr := collect(t, g, 2, 0)
	for _, p := range []int{2, 4, 8, 16} {
		res := simulate(t, tr, p, Affinity)
		st := sched.Summarize(res.PerWorkerUnits)
		if st.Mean == 0 {
			continue
		}
		if st.StdDev/st.Mean > 0.35 {
			t.Errorf("P=%d: busy stddev %.0f is %.0f%% of mean %.0f",
				p, st.StdDev, 100*st.StdDev/st.Mean, st.Mean)
		}
	}
}

func TestSimulateCalibration(t *testing.T) {
	g := traceGraph(80)
	tr := collect(t, g, 2, 0)
	m := DefaultAltix()
	m.UnitsPerSecond = 1000
	res, err := Simulate(tr, SimOptions{Machine: m, Processors: 1, Strategy: Affinity})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Seconds-res.Units/1000) > 1e-9 {
		t.Errorf("calibration ignored: %.3f vs %.3f", res.Seconds, res.Units/1000)
	}
	// The anchor: a machine tuned for the trace's units replays them in
	// the paper's 1,948 s on one processor, plus its seed and overhead
	// units at the same rate.
	tuned := DefaultAltix().TunedFor(float64(tr.TotalUnits))
	res2, err := Simulate(tr, SimOptions{Machine: tuned, Processors: 1, Strategy: Affinity})
	if err != nil {
		t.Fatal(err)
	}
	var overhead float64
	for _, lr := range res2.Levels {
		overhead += lr.Overhead
	}
	extra := (res2.SeedUnits + overhead) / tuned.UnitsPerSecond
	if want := ReferenceSeconds + extra; math.Abs(res2.Seconds-want) > 1e-9*want {
		t.Errorf("tuned machine replays %d units in %.6f s, want 1948 s + %.6f s", tr.TotalUnits, res2.Seconds, extra)
	}
	if extra <= 0 {
		t.Error("seed and overheads cost no time")
	}
}

func TestScaledMachine(t *testing.T) {
	m := DefaultAltix().Scaled(0.25)
	if m.BarrierUnits != DefaultAltix().BarrierUnits*0.25 {
		t.Error("BarrierUnits not scaled")
	}
	if m.CollectPerProc != DefaultAltix().CollectPerProc*0.25 {
		t.Error("CollectPerProc not scaled")
	}
	if m.RemotePenalty != DefaultAltix().RemotePenalty {
		t.Error("RemotePenalty must not scale")
	}
}

func TestSimulateErrors(t *testing.T) {
	tr := &Trace{}
	if _, err := Simulate(tr, SimOptions{Processors: 0}); err == nil {
		t.Error("0 processors accepted")
	}
	if _, err := Simulate(tr, SimOptions{Processors: 1}); err == nil {
		t.Error("a machine without a rate accepted")
	}
}

func TestPerWorkerSeconds(t *testing.T) {
	r := &Result{PerWorkerUnits: []float64{100, 200}}
	s := r.PerWorkerSeconds(100)
	if s[0] != 1 || s[1] != 2 {
		t.Errorf("PerWorkerSeconds = %v", s)
	}
}
