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
