package microarray

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Genes != 3 || m.Conditions != 4 {
		t.Fatalf("shape %dx%d", m.Genes, m.Conditions)
	}
	if len(m.Data) != 3 || len(m.Data[0]) != 4 {
		t.Fatal("backing shape wrong")
	}
	m.Data[1][2] = 5
	if m.Data[0][2] != 0 || m.Data[2][2] != 0 {
		t.Error("rows share storage incorrectly")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative dims did not panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestSynthesizeModuleCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := SyntheticConfig{
		Genes:      30,
		Conditions: 60,
		Modules: []ModuleSpec{
			{Genes: []int{0, 1, 2, 3, 4}, Signal: 5},
		},
	}
	m := Synthesize(rng, cfg)
	m.Normalize()
	// Module members must be strongly rank-correlated...
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if r := stats.Spearman(m.Data[i], m.Data[j]); r < 0.8 {
				t.Errorf("module pair (%d,%d) Spearman = %.3f", i, j, r)
			}
		}
	}
	// ...and uncorrelated with background genes (on average).
	var sum float64
	for j := 10; j < 30; j++ {
		sum += math.Abs(stats.Spearman(m.Data[0], m.Data[j]))
	}
	if avg := sum / 20; avg > 0.4 {
		t.Errorf("mean |r| against background = %.3f, want small", avg)
	}
}

func TestSynthesizeInverseMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := SyntheticConfig{
		Genes:      10,
		Conditions: 80,
		Modules: []ModuleSpec{
			{Genes: []int{0, 1}, Signal: 6, Inverse: 1},
		},
	}
	m := Synthesize(rng, cfg)
	if r := stats.Spearman(m.Data[0], m.Data[1]); r > -0.8 {
		t.Errorf("anti-correlated pair Spearman = %.3f, want <= -0.8", r)
	}
}

func TestSynthesizeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("module gene out of range did not panic")
		}
	}()
	Synthesize(rand.New(rand.NewSource(1)), SyntheticConfig{
		Genes: 3, Conditions: 5,
		Modules: []ModuleSpec{{Genes: []int{7}, Signal: 1}},
	})
}

func TestNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := Synthesize(rng, SyntheticConfig{Genes: 5, Conditions: 40})
	m.Normalize()
	for g := 0; g < m.Genes; g++ {
		if mean := stats.Mean(m.Data[g]); math.Abs(mean) > 1e-9 {
			t.Errorf("gene %d mean %g after normalize", g, mean)
		}
		if sd := stats.StdDev(m.Data[g]); math.Abs(sd-1) > 1e-9 {
			t.Errorf("gene %d sd %g after normalize", g, sd)
		}
	}
}

func TestCorrelationGraphFindsModuleClique(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	module := []int{2, 5, 8, 11, 14}
	cfg := SyntheticConfig{
		Genes:      40,
		Conditions: 80,
		Modules:    []ModuleSpec{{Genes: module, Signal: 6}},
	}
	m := Synthesize(rng, cfg)
	m.Normalize()
	for _, method := range []CorrelationMethod{SpearmanRank, PearsonProduct} {
		g := CorrelationGraph(m, method, 0.7)
		if !graph.IsClique(g, module) {
			t.Errorf("method %d: planted module is not a clique at 0.7", method)
		}
		// Background density must stay low.
		background := g.M() - 10 // module contributes C(5,2)=10
		if background > 30 {
			t.Errorf("method %d: %d background edges at 0.7", method, background)
		}
	}
}

func TestCorrelationGraphAntiCorrelatedEdge(t *testing.T) {
	// |r| thresholding must connect anti-correlated genes too: the paper's
	// co-expression graphs are built from correlation magnitude.
	rng := rand.New(rand.NewSource(15))
	m := Synthesize(rng, SyntheticConfig{
		Genes: 6, Conditions: 100,
		Modules: []ModuleSpec{{Genes: []int{0, 1}, Signal: 8, Inverse: 1}},
	})
	m.Normalize()
	g := CorrelationGraph(m, SpearmanRank, 0.8)
	if !g.HasEdge(0, 1) {
		t.Error("anti-correlated pair not connected under |r| threshold")
	}
}

func TestCorrelationGraphNames(t *testing.T) {
	m := NewMatrix(2, 4)
	m.Names = []string{"probeA", "probeB"}
	for c := 0; c < 4; c++ {
		m.Data[0][c] = float64(c)
		m.Data[1][c] = float64(c) * 2
	}
	g := CorrelationGraph(m, PearsonProduct, 0.9)
	if g.Name(0) != "probeA" || g.Name(1) != "probeB" {
		t.Errorf("names not propagated: %q %q", g.Name(0), g.Name(1))
	}
	if !g.HasEdge(0, 1) {
		t.Error("perfectly correlated pair not connected")
	}
}

func TestThresholdForEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	module := []int{0, 1, 2, 3}
	m := Synthesize(rng, SyntheticConfig{
		Genes: 25, Conditions: 60,
		Modules: []ModuleSpec{{Genes: module, Signal: 6}},
	})
	m.Normalize()
	for _, target := range []int{6, 10, 40} {
		th := ThresholdForEdgeCount(m, SpearmanRank, target)
		g := CorrelationGraph(m, SpearmanRank, th)
		if g.M() > target {
			t.Errorf("target %d: got %d edges at threshold %.4f", target, g.M(), th)
		}
		// The threshold should not be wildly conservative either:
		// with distinct coefficients we expect to land close to target.
		if g.M() < target-3 {
			t.Errorf("target %d: only %d edges at threshold %.4f", target, g.M(), th)
		}
	}
	if th := ThresholdForEdgeCount(m, SpearmanRank, 1<<20); th != 0 {
		t.Errorf("threshold for huge budget = %g, want 0", th)
	}
	if th := ThresholdForEdgeCount(m, SpearmanRank, 0); th <= 1 {
		t.Errorf("threshold for zero budget = %g, want > 1", th)
	}
}

func TestTerseModuleStillCorrelates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := Synthesize(rng, SyntheticConfig{
		Genes: 8, Conditions: 100,
		Modules: []ModuleSpec{{Genes: []int{0, 1, 2}, Signal: 8, Terse: true}},
	})
	m.Normalize()
	// Transitory association (the paper's motivating case): correlation
	// driven by half the conditions is weaker but still detectable.
	r := stats.Spearman(m.Data[0], m.Data[1])
	if r < 0.3 {
		t.Errorf("terse module Spearman = %.3f, want >= 0.3", r)
	}
	full := Synthesize(rand.New(rand.NewSource(17)), SyntheticConfig{
		Genes: 8, Conditions: 100,
		Modules: []ModuleSpec{{Genes: []int{0, 1, 2}, Signal: 8}},
	})
	full.Normalize()
	if rf := stats.Spearman(full.Data[0], full.Data[1]); rf <= r {
		t.Errorf("full-span correlation %.3f not stronger than terse %.3f", rf, r)
	}
}
