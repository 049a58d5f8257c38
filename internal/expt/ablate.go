package expt

import (
	"fmt"
	"os"
	"time"

	"repro/internal/bk"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/kose"
	"repro/internal/membudget"
	"repro/internal/ooc"
	"repro/internal/sched"
	"repro/internal/simarch"
)

// Ablations runs the design-choice comparisons DESIGN.md calls out and
// returns one table per ablation:
//
//  1. bitmap mode — store vs memoised rebuild vs WAH-compress (the paper's §2.3
//     trade-off plus its conclusions' compression direction);
//  2. storage tier — in-core vs the pre-Altix out-of-core design (the
//     paper's §1 motivation);
//  3. algorithm — Clique Enumerator vs Base/Improved BK vs Kose RAM;
//  4. scheduler — affinity+threshold (the paper's) vs re-chunk-everything
//     vs no balancing, on the simulated Altix;
//  5. graph representation — dense bitmap vs CSR vs WAH-compressed rows
//     (measured adjacency bytes and enumeration time);
//  6. memory governance — unconstrained in-core vs hybrid spillover at
//     shrinking budgets vs fully out-of-core (the adaptive answer to
//     the paper's in-core-dies / out-of-core-crawls dilemma).
func Ablations(cfg Config) ([]*Table, error) {
	cfg = cfg.normalized()
	var tables []*Table
	for _, fn := range []func(Config) (*Table, error){
		ablateCNMode, ablateStorage, ablateAlgorithms, ablateScheduler,
		RepresentationFootprint, ablateSpillover,
	} {
		t, err := fn(cfg)
		if err != nil {
			return tables, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func ablateCNMode(cfg Config) (*Table, error) {
	g := Build(cfg.specC(), cfg.Seed)
	t := &Table{
		Title:   "Ablation: common-neighbor bitmap mode (graph C)",
		Headers: []string{"mode", "time", "peak level bytes", "AND words"},
	}
	for _, m := range []struct {
		name string
		opts core.Options
	}{
		{"store (paper)", core.Options{Ctx: cfg.Ctx, Mode: core.CNStore}},
		{"memoised (default)", core.Options{Ctx: cfg.Ctx}},
		{"WAH compress", core.Options{Ctx: cfg.Ctx, Mode: core.CNCompress}},
	} {
		start := time.Now()
		res, err := core.Enumerate(g, m.opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name,
			time.Since(start).Round(time.Millisecond).String(),
			fmt.Sprint(res.PeakBytes),
			fmt.Sprint(res.TotalCost.ANDWords))
	}
	t.Notes = append(t.Notes,
		"expected: memoised/compress cut peak bytes; memoised pays one or two rebuild ANDs per sub-list")
	return t, nil
}

func ablateStorage(cfg Config) (*Table, error) {
	g := Build(cfg.specC(), cfg.Seed)
	t := &Table{
		Title:   "Ablation: in-core vs out-of-core (the paper's pre-Altix design)",
		Headers: []string{"tier", "time", "resident/peak bytes", "disk bytes moved"},
	}
	start := time.Now()
	inCore, err := core.Enumerate(g, core.Options{Ctx: cfg.Ctx, Mode: core.CNStore})
	if err != nil {
		return nil, err
	}
	t.AddRow("in-core (paper)",
		time.Since(start).Round(time.Millisecond).String(),
		fmt.Sprint(inCore.PeakBytes), "0")

	// The out-of-core rows sweep the engine's two levers — parallel
	// shard joins and delta-varint level records — against the serial
	// uncompressed baseline: the workers attack the join time, the
	// encoding attacks the disk volume the paper calls the bottleneck.
	for _, m := range []struct {
		name string
		opts ooc.Options
	}{
		{"out-of-core serial", ooc.Options{}},
		{"out-of-core 4 workers", ooc.Options{Workers: 4}},
		{"out-of-core compressed", ooc.Options{Compress: true}},
		{"out-of-core 4w + compressed", ooc.Options{Workers: 4, Compress: true}},
	} {
		dir, err := os.MkdirTemp("", "repro-ablate-*")
		if err != nil {
			return nil, err
		}
		m.opts.Ctx = cfg.Ctx
		m.opts.Dir = dir
		start = time.Now()
		st, err := ooc.Enumerate(g, m.opts)
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name,
			time.Since(start).Round(time.Millisecond).String(),
			fmt.Sprint(st.PeakLevelFile),
			fmt.Sprint(st.BytesRead+st.BytesWritten))
		if st.Maximal != inCore.MaximalCliques {
			return nil, fmt.Errorf("expt: storage tiers disagree (%s): %d vs %d",
				m.name, st.Maximal, inCore.MaximalCliques)
		}
	}
	t.Notes = append(t.Notes,
		"paper: the out-of-core variant could not finish genome-scale runs; disk I/O was the bottleneck;",
		"the compressed rows cut the bytes moved, the worker rows cut the join time")
	return t, nil
}

func ablateAlgorithms(cfg Config) (*Table, error) {
	g := Build(cfg.specA(), cfg.Seed)
	t := &Table{
		Title:   "Ablation: enumeration algorithm (graph A)",
		Headers: []string{"algorithm", "time", "maximal cliques (size >= 3)"},
	}
	time3 := func(name string, run func() int64) {
		start := time.Now()
		n := run()
		t.AddRow(name, time.Since(start).Round(time.Millisecond).String(), fmt.Sprint(n))
	}
	time3("Clique Enumerator", func() int64 {
		res, _ := core.Enumerate(g, core.Options{})
		return res.MaximalCliques
	})
	time3("Base BK", func() int64 {
		var n int64
		bk.Enumerate(g, bk.Base, clique.ReporterFunc(func(c clique.Clique) {
			if len(c) >= 3 {
				n++
			}
		}))
		return n
	})
	time3("Improved BK", func() int64 {
		var n int64
		bk.Enumerate(g, bk.Improved, clique.ReporterFunc(func(c clique.Clique) {
			if len(c) >= 3 {
				n++
			}
		}))
		return n
	})
	time3("Kose RAM", func() int64 {
		st := kose.Enumerate(g, kose.Options{})
		return st.Maximal
	})
	t.Notes = append(t.Notes,
		"BK variants do not emit in size order; Kose RAM stores every clique of every size")
	return t, nil
}

func ablateScheduler(cfg Config) (*Table, error) {
	spec := cfg.specC()
	ik := initKladder(spec)[0]
	g := Build(spec, cfg.Seed)
	tr, err := simarch.CollectMode(g, ik, 0, traceMode(spec, ik))
	if err != nil {
		return nil, err
	}
	machine := simarch.DefaultAltix().TunedFor(float64(tr.TotalUnits))
	machine.UnitsPerSecond = tr.UnitsPerSecond()

	t := &Table{
		Title:   fmt.Sprintf("Ablation: scheduler strategy at P=16, Init_K=%d (simulated Altix)", ik),
		Headers: []string{"strategy", "simulated time (s)", "transfers"},
	}
	for _, s := range []struct {
		name     string
		strategy simarch.Strategy
		policy   sched.Policy
	}{
		{"affinity + threshold (paper)", simarch.Affinity, sched.Policy{}},
		{"affinity, no transfers", simarch.Affinity, sched.Policy{RelTolerance: 1e9}},
		{"re-chunk every level", simarch.Contiguous, sched.Policy{}},
	} {
		res, err := simarch.Simulate(tr, simarch.SimOptions{
			Machine:    machine,
			Processors: 16,
			Strategy:   s.strategy,
			Policy:     s.policy,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(s.name, fmt.Sprintf("%.4f", res.Seconds), fmt.Sprint(res.Transfers))
	}
	t.Notes = append(t.Notes,
		"expected: no-transfer affinity suffers from skew; full re-chunking ignores NUMA locality;",
		"the paper's threshold policy transfers only what the imbalance justifies")
	return t, nil
}

// ablateSpillover sweeps the hybrid backend's memory budget on graph C:
// the unconstrained in-core run anchors one end and the fully
// out-of-core run the other, with hybrid rows at halving budgets in
// between.  The columns to watch are the governor peak (how much memory
// the run actually held) against the disk bytes it paid for the
// savings — the adaptive version of the paper's in-core/out-of-core
// dilemma, where the regime used to be an up-front either/or.
func ablateSpillover(cfg Config) (*Table, error) {
	g := Build(cfg.specC(), cfg.Seed)
	t := &Table{
		Title:   "Ablation: memory governance / adaptive spillover (graph C)",
		Headers: []string{"budget", "time", "spilled at", "governor peak", "disk bytes moved"},
	}
	inCore, err := core.Enumerate(g, core.Options{Ctx: cfg.Ctx})
	if err != nil {
		return nil, err
	}
	addRow := func(name string, budget int64, workers int) error {
		dir, err := os.MkdirTemp("", "repro-spillover-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		gov := membudget.New(budget)
		start := time.Now()
		res, err := hybrid.Enumerate(g, hybrid.Options{
			Ctx:     cfg.Ctx,
			Workers: workers,
			Dir:     dir,
			Gov:     gov,
		})
		if err != nil {
			return err
		}
		if res.MaximalCliques != inCore.MaximalCliques {
			return fmt.Errorf("expt: spillover at %s disagrees: %d vs %d cliques",
				name, res.MaximalCliques, inCore.MaximalCliques)
		}
		spilled := "never"
		if res.SpilledAtLevel > 0 {
			spilled = fmt.Sprintf("level %d", res.SpilledAtLevel)
		}
		t.AddRow(name,
			time.Since(start).Round(time.Millisecond).String(),
			spilled,
			fmt.Sprint(gov.Peak()),
			fmt.Sprint(res.OOC.BytesRead+res.OOC.BytesWritten))
		return nil
	}
	if err := addRow("unlimited (in-core)", 0, 1); err != nil {
		return nil, err
	}
	for _, frac := range []int64{2, 4, 8} {
		budget := inCore.PeakBytes / frac
		if err := addRow(fmt.Sprintf("peak/%d", frac), budget, 1); err != nil {
			return nil, err
		}
	}
	if err := addRow("peak/4, 4 workers", inCore.PeakBytes/4, 4); err != nil {
		return nil, err
	}
	if err := addRow("1 byte (out-of-core)", 1, 1); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"every row delivers the identical clique stream; the budget only moves the spill point,",
		"trading governor peak (resident bytes) against disk traffic — the paper had to choose a regime up front")
	return t, nil
}

// RepresentationFootprint compares the pluggable adjacency backends on
// graph C: the measured adjacency footprint of each representation (its
// Bytes() accounting) and the sequential enumeration time over it.  It
// is the data-layer counterpart of ablateCNMode — that table varies how
// candidate bitmaps are kept, this one varies how the graph itself is.
func RepresentationFootprint(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	dense := Build(cfg.specC(), cfg.Seed)
	t := &Table{
		Title:   "Ablation: graph representation (graph C)",
		Headers: []string{"representation", "adjacency bytes", "vs dense", "time", "maximal"},
	}
	for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
		g, err := graph.Convert(dense, rep)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := core.Enumerate(g, core.Options{Ctx: cfg.Ctx})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			rep.String(),
			fmt.Sprintf("%d", g.Bytes()),
			fmt.Sprintf("%.1f%%", 100*float64(g.Bytes())/float64(dense.Bytes())),
			time.Since(start).Round(time.Microsecond).String(),
			fmt.Sprintf("%d", res.MaximalCliques),
		)
	}
	t.Notes = append(t.Notes,
		"adjacency bytes is the representation's own Bytes() accounting;",
		"dense = n*ceil(n/64)*8, CSR = 4(n+1+2m), WAH = sum of compressed rows.")
	return t, nil
}
