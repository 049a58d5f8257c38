package enumcfg

import (
	"strings"
	"testing"
)

// TestNormalizeMatrix is the table-driven accept/reject matrix over
// every validation branch of Normalize, including the hybrid/spillover
// rules.  Each reject case names a fragment the error must contain, so
// a rule cannot silently start firing for the wrong reason.
func TestNormalizeMatrix(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string  // "" = accept
		backend Backend // checked on accept
	}{
		// --- defaults and universal rules ---
		{"zero value", Config{}, "", Sequential},
		{"explicit bounds", Config{Lo: 3, Hi: 10}, "", Sequential},
		{"lo below one", Config{Lo: -1}, "Lo", 0},
		{"hi below lo", Config{Lo: 5, Hi: 3}, "Hi", 0},
		{"negative workers", Config{Workers: -2}, "workers", 0},
		{"unknown mode", Config{Mode: CNStore + 1}, "CN mode", 0},
		{"unknown strategy", Config{Strategy: Affinity + 1}, "strategy", 0},
		{"negative memory budget", Config{MemoryBudget: -5}, "negative memory budget", 0},
		{"negative shard bytes", Config{Dir: "d", ShardBytes: -1}, "negative shard bytes", 0},
		{"negative lease timeout", Config{DistLeaseTimeout: -1}, "negative distributed lease timeout", 0},

		// --- worker selection ---
		{"parallel", Config{Workers: 4}, "", Parallel},

		// --- in-core budgets (governor-enforced everywhere) ---
		{"sequential budget", Config{MemoryBudget: 1 << 20}, "", Sequential},
		{"parallel budget", Config{Workers: 4, MemoryBudget: 1 << 20}, "", Parallel},

		// --- report-small ---
		{"sequential report-small", Config{ReportSmall: true}, "", Sequential},
		{"parallel report-small", Config{Workers: 2, ReportSmall: true}, "", Parallel},
		{"ooc report-small", Config{Dir: "d", ReportSmall: true}, "", OutOfCore},

		// --- out-of-core knob dependencies ---
		{"ooc", Config{Dir: "d"}, "", OutOfCore},
		{"ooc workers", Config{Dir: "d", Workers: 4}, "", OutOfCore},
		{"ooc checkpoint", Config{Dir: "d", Checkpoint: true}, "", OutOfCore},
		{"ooc resume", Config{Dir: "d", Resume: true}, "", OutOfCore},
		{"checkpoint without dir", Config{Checkpoint: true}, "require a spill Dir", 0},
		{"resume without dir", Config{Resume: true}, "require a spill Dir", 0},
		{"ooc low-memory", Config{Dir: "d", Mode: CNRecompute}, "", OutOfCore},
		{"ooc stored bitmaps", Config{Dir: "d", Mode: CNStore}, "meaningless out of core", 0},

		// --- hybrid / spillover ---
		{"implied hybrid", Config{Dir: "d", MemoryBudget: 1 << 20}, "", Hybrid},
		{"explicit spillover", Config{Dir: "d", Spill: true, MemoryBudget: 1 << 20}, "", Hybrid},
		{"hybrid parallel", Config{Dir: "d", MemoryBudget: 1 << 20, Workers: 4}, "", Hybrid},
		{"hybrid low-memory", Config{Dir: "d", MemoryBudget: 1 << 20, Mode: CNRecompute}, "", Hybrid},
		{"hybrid stored bitmaps", Config{Dir: "d", MemoryBudget: 1 << 20, Mode: CNStore}, "", Hybrid},
		{"hybrid report-small sequential", Config{Dir: "d", MemoryBudget: 1 << 20, ReportSmall: true}, "", Hybrid},
		{"hybrid report-small parallel", Config{Dir: "d", MemoryBudget: 1 << 20, Workers: 2, ReportSmall: true}, "", Hybrid},
		{"spillover without dir", Config{Spill: true, MemoryBudget: 1 << 20}, "requires a spill Dir", 0},
		{"spillover without budget", Config{Dir: "d", Spill: true}, "requires a MemoryBudget", 0},
		{"resume plus spillover", Config{Dir: "d", Spill: true, Resume: true, MemoryBudget: 1 << 20},
			"spillover does not apply", 0},
		{"resume plus budget", Config{Dir: "d", Resume: true, MemoryBudget: 1 << 20},
			"budget does not apply", 0},
		{"hybrid checkpoint", Config{Dir: "d", MemoryBudget: 1 << 20, Checkpoint: true},
			"out-of-core run from the start", 0},

		// --- distributed ---
		{"distributed", Config{Dir: "d", DistWorkers: 4}, "", Distributed},
		{"distributed one worker", Config{Dir: "d", DistWorkers: 1}, "", Distributed},
		{"distributed knobs", Config{Dir: "d", DistWorkers: 2, DistLeaseTimeout: 1,
			ShardBytes: 1 << 16, DistWorkerCmd: []string{"cliqued", "-worker"}}, "", Distributed},
		{"distributed without dir", Config{DistWorkers: 2}, "requires a run Dir", 0},
		{"distributed negative lease timeout", Config{Dir: "d", DistWorkers: 2, DistLeaseTimeout: -1},
			"negative distributed lease timeout", 0},
		{"distributed negative shard bytes", Config{Dir: "d", DistWorkers: 2, ShardBytes: -1},
			"negative shard bytes", 0},
		{"distributed plus in-process workers", Config{Dir: "d", DistWorkers: 2, Workers: 4},
			"not both", 0},
		{"distributed plus checkpoint", Config{Dir: "d", DistWorkers: 2, Checkpoint: true},
			"manages its own checkpoint", 0},
		{"distributed plus resume", Config{Dir: "d", DistWorkers: 2, Resume: true},
			"manages its own checkpoint", 0},
		{"distributed plus memory budget", Config{Dir: "d", DistWorkers: 2, MemoryBudget: 1 << 20},
			"memory budget does not apply", 0},
		{"distributed plus spill budget", Config{Dir: "d", DistWorkers: 2, SpillBudget: 1 << 20},
			"not supported by the distributed coordinator", 0},
		{"distributed report-small", Config{Dir: "d", DistWorkers: 2, ReportSmall: true}, "", Distributed},
		{"distributed low-memory mode", Config{Dir: "d", DistWorkers: 2, Mode: CNRecompute}, "", Distributed},
		{"distributed stored bitmaps", Config{Dir: "d", DistWorkers: 2, Mode: CNStore},
			"meaningless out of core", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			err := cfg.Normalize()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Normalize(%+v) = %v, want accept", c.cfg, err)
				}
				if got := cfg.Backend(); got != c.backend {
					t.Fatalf("Backend() = %v, want %v", got, c.backend)
				}
				// Defaults must have been applied.
				if cfg.Lo < 1 || cfg.Workers < 1 {
					t.Fatalf("defaults not applied: %+v", cfg)
				}
				return
			}
			if err == nil {
				t.Fatalf("Normalize(%+v) accepted, want error containing %q", c.cfg, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Normalize error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// TestNormalizeLatchesImpliedSpill: the Dir+MemoryBudget shorthand
// normalizes to the explicit Spill form, and resume implies checkpoint.
func TestNormalizeLatchesImpliedSpill(t *testing.T) {
	cfg := Config{Dir: "d", MemoryBudget: 1}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !cfg.Spill {
		t.Error("implied hybrid did not latch Spill")
	}
	cfg = Config{Dir: "d", Resume: true}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !cfg.Checkpoint {
		t.Error("Resume did not imply Checkpoint")
	}
}
