package main

import (
	"testing"

	"repro/internal/expt"
)

// tinyCfg keeps the dispatcher tests fast.
var tinyCfg = expt.Config{Scale: 0.3, Seed: 1, Reps: 1, Budget: 1 << 18}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nosuch", tinyCfg); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSmokeFastExperiments(t *testing.T) {
	for _, name := range []string{"maxclique", "table1", "fig8", "fig9", "blowup"} {
		if err := run(name, tinyCfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestScalingFamilyDeduplicatesInitK(t *testing.T) {
	// At scale 0.3 the Init_K ladder collapses onto 3; the family must
	// not collect duplicate traces.
	fam, err := scalingFamily(tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, e := range fam.Entries {
		if seen[e.InitK] {
			t.Fatalf("duplicate Init_K %d in family", e.InitK)
		}
		seen[e.InitK] = true
	}
}

func TestScaleOf(t *testing.T) {
	if scaleOf(expt.Config{}) != 1 {
		t.Error("zero scale should normalize to 1")
	}
	if scaleOf(expt.Config{Scale: 0.5}) != 0.5 {
		t.Error("explicit scale dropped")
	}
}
