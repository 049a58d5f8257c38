package dist

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/ooc"
	"repro/internal/testgraph"
)

// updateStored rewrites the golden of TestStoredMachineIsACount.
var updateStored = flag.Bool("update-stored", false, "rewrite testdata/stored_machine.json")

const storedGolden = "testdata/stored_machine.json"

// TestStoredMachineIsACount: the paper's stored-bitmap machine keeps
// every prefix's common neighbours beside its sub-list, so it does the
// run's work less the ANDs that rebuild them — Cost.Rebuild — and nothing
// else.  Every engine — sequential, the pool at 2 and 4 workers under
// both strategies, out of core at 1 and 2 workers, distributed at 2 —
// runs the testgraph table at its bounds and graph C at scale 0.55, and
// each level's Cost must be the golden's.  The golden was taken while the
// stored machine still ran as a mode of its own, and each of its levels
// less its Rebuild is what that mode counted on every in-core engine.
// Regenerate it only when counted work moves on purpose:
//
//	go test ./internal/dist -run TestStoredMachineIsACount -update-stored
func TestStoredMachineIsACount(t *testing.T) {
	type fixture struct {
		name   string
		g      graph.Interface
		lo, hi int
	}
	var fixtures []fixture
	for _, tg := range testgraph.All() {
		fixtures = append(fixtures, fixture{tg.Name, tg.Build(), tg.Lo, tg.Hi})
	}
	fixtures = append(fixtures, fixture{"C x0.55", expt.Build(expt.SpecC.Scale(0.55), 1), 3, 0})

	golden := map[string][]core.Cost{}
	if !*updateStored {
		raw, err := os.ReadFile(storedGolden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	costs := func(run func(h core.Hooks) error) ([]core.Cost, error) {
		var levels []core.Cost
		err := run(core.Hooks{OnLevel: func(ls core.LevelStats) { levels = append(levels, ls.Cost) }})
		return levels, err
	}
	for _, f := range fixtures {
		base := enumcfg.Config{Lo: f.lo, Hi: f.hi}
		inCore := func(cfg enumcfg.Config) func(core.Hooks) error {
			return func(h core.Hooks) error { _, err := hybrid.Enumerate(f.g, cfg, h); return err }
		}
		type engine struct {
			name string
			run  func(core.Hooks) error
		}
		engines := []engine{{"sequential", inCore(base)}}
		for _, workers := range []int{2, 4} {
			for _, s := range []enumcfg.Strategy{enumcfg.Contiguous, enumcfg.Affinity} {
				cfg := base
				cfg.Workers, cfg.Strategy = workers, s
				engines = append(engines, engine{fmt.Sprintf("pool workers=%d strategy=%d", workers, s), inCore(cfg)})
			}
		}
		for _, workers := range []int{1, 2} {
			engines = append(engines, engine{fmt.Sprintf("ooc workers=%d", workers), func(h core.Hooks) error {
				cfg := base
				cfg.Workers, cfg.Dir = workers, t.TempDir()
				_, err := ooc.Enumerate(f.g, cfg, h)
				return err
			}})
		}
		engines = append(engines, engine{"dist workers=2", func(h core.Hooks) error {
			cfg := base
			cfg.DistWorkers, cfg.Dir = 2, t.TempDir()
			_, err := Enumerate(f.g, cfg, h, &LoopbackTransport{})
			return err
		}})

		want := golden[f.name]
		for _, e := range engines {
			got, err := costs(e.run)
			if err != nil {
				t.Fatalf("%s, %s: %v", f.name, e.name, err)
			}
			if *updateStored && e.name == "sequential" {
				golden[f.name], want = got, got
			}
			if len(got) != len(want) {
				t.Errorf("%s, %s: %d levels, the golden has %d", f.name, e.name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s, %s: level %d counts %+v, the golden %+v", f.name, e.name, i, got[i], want[i])
				}
			}
		}
		if f.name == "C x0.55" && len(want) < 8 {
			t.Errorf("%s: %d levels; the fixture should climb further", f.name, len(want))
		}
	}
	if *updateStored {
		raw, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(storedGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
