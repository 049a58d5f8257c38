// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md §9).  Each benchmark runs the corresponding
// experiment at a reduced scale so the whole suite completes in minutes;
// cmd/repro runs the same code at (near-)paper scale and EXPERIMENTS.md
// records both sets of numbers.
package repro

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/kose"
	"repro/internal/parallel"
	"repro/internal/simarch"
)

// benchKose runs the Kose RAM baseline, counting only.
func benchKose(b *testing.B, g *graph.Graph) {
	b.Helper()
	kose.Enumerate(g, kose.Options{Reporter: clique.NewCounter()})
}

// benchCore runs the sequential Clique Enumerator, counting only.
func benchCore(b *testing.B, g *graph.Graph) {
	b.Helper()
	if _, err := hybrid.Enumerate(g, enumcfg.Config{}, core.Hooks{Reporter: clique.NewCounter()}); err != nil {
		b.Fatal(err)
	}
}

// benchCfg is the reduced-scale configuration shared by the benchmarks.
var benchCfg = expt.Config{Scale: 0.55, Seed: 1, Reps: 2, Budget: 1 << 20}

// BenchmarkMaxCliqueBounds regenerates the Section 3 maximum clique
// sizes (paper: 17 / 110 / 28).
func BenchmarkMaxCliqueBounds(b *testing.B) {
	cfg := benchCfg
	cfg.Scale = 0.3 // graph B's branch-and-bound dominates otherwise
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.MaxCliqueBounds(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1KoseRAM and BenchmarkTable1CliqueEnumerator time the two
// sides of Table 1 separately (paper: 17,261 s vs 45 s, 383x); the
// combined runner asserts equal outputs.
func BenchmarkTable1KoseRAM(b *testing.B) {
	g := expt.Build(expt.SpecA.Scale(benchCfg.Scale), benchCfg.Seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchKose(b, g)
	}
}

func BenchmarkTable1CliqueEnumerator(b *testing.B) {
	g := expt.Build(expt.SpecA.Scale(benchCfg.Scale), benchCfg.Seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCore(b, g)
	}
}

// BenchmarkTable1Combined runs the full Table 1 experiment, including the
// output-equality check between the two algorithms.
func BenchmarkTable1Combined(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table1(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Scaling regenerates Figure 5: run time vs processor count
// for the Init_K ladder on graph C (trace collection + 1..256-processor
// simulation sweep).
func BenchmarkFig5Scaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig5(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Speedup regenerates Figure 6 (absolute and relative
// speedups to 64 processors, Init_K ∈ {3, ladder}).
func BenchmarkFig6Speedup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig6(benchCfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7SpeedupVsSeqTime regenerates Figure 7 (256-processor
// speedup grows with sequential run time; paper 22 -> 51).
func BenchmarkFig7SpeedupVsSeqTime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig7(benchCfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8LoadBalance regenerates Figure 8 (per-processor busy-time
// mean ± stddev with the load balancer; paper stddev <= 10%).
func BenchmarkFig8LoadBalance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig8(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9MemoryProfile regenerates Figure 9 (per-level candidate
// bytes across the full enumeration; paper peaks ~20 GB at k=13).
func BenchmarkFig9MemoryProfile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig9(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlowupBudgetAbort regenerates the Section 3 graph-B anecdote
// (607 GB + 404 GB, terminated): budget-bounded enumeration that must
// abort.
func BenchmarkBlowupBudgetAbort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Blowup(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// skewedGraph is the streaming-vs-barrier benchmark workload: a few
// planted modules of very different sizes over sparse background noise,
// giving the skewed degree distribution (and skewed sub-list costs) on
// which one static assignment per level straggles.
func skewedGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(41))
	return graph.PlantedGraph(rng, 500, []graph.PlantedCliqueSpec{
		{Size: 17}, {Size: 13, Overlap: 4}, {Size: 10}, {Size: 8, Overlap: 2},
	}, 1200)
}

// uniformGraph is the control workload: near-uniform degrees, where the
// static per-level split is already close to optimal and streaming should
// merely match it.
func uniformGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(42))
	return graph.RandomGNP(rng, 340, 0.12)
}

// benchEnumerate runs one parallel backend over g with the Affinity
// strategy (the paper's), counting only.
func benchEnumerate(b *testing.B, g *graph.Graph, workers int, enumerate func(graph.Interface, int) error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enumerate(g, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// streaming runs the streaming worker pool through the level loop.
func streaming(g graph.Interface, workers int) error {
	_, err := hybrid.Enumerate(g, enumcfg.Config{Workers: workers, Strategy: enumcfg.Affinity}, core.Hooks{})
	return err
}

// barrier runs the retained bulk-synchronous pool.
func barrier(g graph.Interface, workers int) error {
	_, err := parallel.EnumerateBarrier(g, parallel.Options{Workers: workers, Strategy: parallel.Affinity})
	return err
}

// BenchmarkEnumerateStreamingSkewed / BenchmarkEnumerateBarrierSkewed
// compare the streaming worker pool against the retained
// bulk-synchronous (one static assignment + barrier per level)
// implementation on the skewed workload, at the worker counts the
// acceptance gate names.
func BenchmarkEnumerateStreamingSkewed4(b *testing.B) {
	benchEnumerate(b, skewedGraph(), 4, streaming)
}

func BenchmarkEnumerateBarrierSkewed4(b *testing.B) {
	benchEnumerate(b, skewedGraph(), 4, barrier)
}

func BenchmarkEnumerateStreamingSkewed8(b *testing.B) {
	benchEnumerate(b, skewedGraph(), 8, streaming)
}

func BenchmarkEnumerateBarrierSkewed8(b *testing.B) {
	benchEnumerate(b, skewedGraph(), 8, barrier)
}

// Uniform control: streaming must at least match the barrier here.
func BenchmarkEnumerateStreamingUniform4(b *testing.B) {
	benchEnumerate(b, uniformGraph(), 4, streaming)
}

func BenchmarkEnumerateBarrierUniform4(b *testing.B) {
	benchEnumerate(b, uniformGraph(), 4, barrier)
}

// seedModes are the bitmap policies a seed runs under: recompute, the
// default of every regime, and store, the one path that still builds
// each group's prefix bitmap.
var seedModes = []struct {
	name string
	mode core.CNMode
}{{"recompute", core.CNRecompute}, {"store", core.CNStore}}

// BenchmarkSeedFromKParallel isolates the Lo >= 3 seed phase that used to
// serialize parallel runs: sequential k-clique seeding vs the sharded
// parallel seeder, under each bitmap policy.
func BenchmarkSeedFromKSequential(b *testing.B) {
	g := skewedGraph()
	for _, m := range seedModes {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SeedFromKMode(g, 5, m.mode, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSeedFromKParallel4(b *testing.B) {
	g := skewedGraph()
	for _, m := range seedModes {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := core.SeedFromKParallel(g, 5, m.mode, 4, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulate256 isolates the simulated-Altix replay cost (one
// 256-processor schedule over a collected trace).
func BenchmarkSimulate256(b *testing.B) {
	g := expt.Build(expt.SpecC.Scale(benchCfg.Scale), benchCfg.Seed)
	tr, err := simarch.CollectMode(g, 2, 0, core.CNStore)
	if err != nil {
		b.Fatal(err)
	}
	m := simarch.DefaultAltix().TunedFor(float64(tr.TotalUnits))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simarch.Simulate(tr, simarch.SimOptions{
			Machine:    m,
			Processors: 256,
			Strategy:   simarch.Affinity,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpilledC75 is the hybrid-c75 shape: graph C at 0.75 (seed 1)
// from Init_K = 3 at one worker, under a quarter of the governor peak of
// the same run unbudgeted, so the governor trips in core and the rest of
// the run joins level after level from shard files.  Beside the time it
// reports the spilled levels' summed Wait — the join stage's time blocked
// on decode-ahead — and the CPU time, user and system, of every thread:
// wall time alone does not say whether a change cut work or filled idle.
func BenchmarkSpilledC75(b *testing.B) {
	g := expt.Build(expt.SpecC.Scale(0.75), 1)
	ctx, discard := context.Background(), ReporterFunc(func(Clique) {})
	var ref Stats
	if _, err := NewEnumerator(WithBounds(3, 0), WithStats(&ref)).Run(ctx, g, discard); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	var wait time.Duration
	b.ResetTimer()
	cpu := cpuTime()
	for i := 0; i < b.N; i++ {
		var st Stats
		opts := []Option{WithBounds(3, 0), WithMemoryBudget(ref.PeakBytes / 4), WithSpillover(dir), WithStats(&st)}
		if _, err := NewEnumerator(opts...).Run(ctx, g, discard); err != nil {
			b.Fatal(err)
		}
		if st.SpilledAtLevel == 0 {
			b.Fatal("the run did not spill")
		}
		for _, ls := range st.Levels {
			wait += ls.Wait
		}
	}
	cpu = cpuTime() - cpu
	b.ReportMetric(float64(wait.Microseconds())/1e3/float64(b.N), "wait-ms/op")
	b.ReportMetric(float64(cpu.Microseconds())/1e3/float64(b.N), "cpu-ms/op")
}
