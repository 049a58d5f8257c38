package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// sink keeps the results of timed kernels alive, so the compiler cannot
// remove the calls.
var sink int

// perOp times fn and returns nanoseconds per call: the iteration count
// doubles until a batch takes 10 ms, and the median of three such batches
// is kept.
func perOp(fn func()) float64 {
	const minBatch = 10 * time.Millisecond
	fn() // warm-up
	var batches []float64
	for b := 0; b < 3; b++ {
		for iters := 1; ; iters *= 2 {
			start := time.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			if d := time.Since(start); d >= minBatch {
				batches = append(batches, float64(d.Nanoseconds())/float64(iters))
				break
			}
		}
	}
	return median(batches)
}

// traceID names one traced run; every span of the run carries it.
func traceID(workload string) string {
	return fmt.Sprintf("%s-%d", workload, time.Now().UnixNano())
}

// finishTrace computes self times once the root span has ended, writes the
// trace file and records the two harness metrics every workload reports.
func finishTrace(e *env, tr *tracer, workload string, base, r *result) error {
	if err := tr.finish(); err != nil {
		return err
	}
	r.layer["trace.unattributed_frac"] = tr.unattributed()
	if wall := tr.wall(); wall > 0 {
		// share.<span> is the self-time share of each span name; PERF.md
		// names the dominant ones.
		for name, self := range tr.selfByName() {
			r.layer["share."+name] = self / wall
		}
	}
	if untraced, ok := base.value("wall_s"); ok && untraced > 0 {
		r.layer["trace.overhead_frac"] = tr.wall()/untraced - 1
	}
	return tr.write(e.outDir, workload, e.seed)
}

// coreCounts is what the benchmark-driven join loop observed.
type coreCounts struct {
	seedCands, cands, sublists int64
	cost                       core.Cost
}

// drivenCore is the sequential in-core enumeration with the level loop
// taken over by the benchmark: it seeds with core.SeedFromKMode and then
// calls core.Step once per level on one core.Builder, exactly the calls
// core.Enumerate makes, with a span around each under root.  emit
// receives every maximal clique with the span it was found in, so that
// the caller can make reporter time a child span and a step's self time
// is the join alone.  hi > 0 stops after generating size-hi cliques.
func drivenCore(ctx context.Context, tr *tracer, root int, g graph.Interface, hi int, emit func(span int, c clique.Clique)) (coreCounts, error) {
	var cc coreCounts
	n := g.N()
	gov := membudget.New(0)
	gov.Charge(g.Bytes())
	defer gov.Release(g.Bytes())
	cur := root
	rep := clique.ReporterFunc(func(c clique.Clique) { emit(cur, c) })

	cur = tr.start(root, "core", "core.seed")
	lvl, _, err := core.SeedFromKMode(g, 3, core.CNStore, rep)
	tr.end(cur)
	if err != nil {
		return cc, err
	}
	cc.seedCands = lvl.Cliques()
	gov.Charge(lvl.Bytes(n))

	b := core.NewBuilderMode(g, core.CNStore, bitset.NewPool(n))
	b.Ctx, b.Gov = ctx, gov
	for len(lvl.Sub) > 0 && (hi == 0 || lvl.K+1 <= hi) {
		cur = tr.start(root, "core", "core.step")
		next, st := core.Step(g, lvl, rep, b)
		tr.end(cur)
		if b.Canceled {
			gov.Release(st.Bytes + st.NextBytes)
			return cc, ctx.Err()
		}
		cc.cands += st.Cliques
		cc.sublists += int64(st.Sublists)
		cc.cost.Add(st.Cost)
		gov.Release(st.Bytes)
		lvl = next
	}
	gov.Release(lvl.Bytes(n))
	return cc, nil
}

// poolCounts is what the benchmark-driven pool loop observed.
type poolCounts struct {
	levelS    float64
	busy      []float64
	transfers int
}

// drivenPool is the 2-worker in-core enumeration with the level loop taken
// over by the benchmark: parallel.NewPool and one Pool.RunLevel per level,
// as parallel.Enumerate drives them.
func drivenPool(ctx context.Context, g graph.Interface, dig *digester) (poolCounts, error) {
	pc := poolCounts{busy: make([]float64, maxWorkers)}
	n := g.N()
	gov := membudget.New(0)
	pool, err := parallel.NewPool(g, parallel.Options{
		Ctx: ctx, Workers: maxWorkers, Lo: 3, Strategy: parallel.Affinity, Gov: gov, Reporter: dig,
	})
	if err != nil {
		return pc, err
	}
	defer pool.Close()
	lvl, homes, _, err := core.SeedFromKParallel(g, 3, core.CNStore, maxWorkers, dig)
	if err != nil {
		return pc, err
	}
	gov.Charge(lvl.Bytes(n))
	for len(lvl.Sub) > 0 {
		if err := ctx.Err(); err != nil {
			gov.Release(lvl.Bytes(n))
			return pc, err
		}
		consumed := lvl.Bytes(n)
		start := time.Now()
		out := pool.RunLevel(ctx, lvl, homes, dig, nil)
		pc.levelS += time.Since(start).Seconds()
		for w, busy := range out.Stats.WorkerBusy {
			pc.busy[w] += busy
		}
		pc.transfers += out.Stats.Transfers
		gov.Release(consumed)
		lvl, homes = out.Next, out.Homes
	}
	gov.Release(lvl.Bytes(n))
	return pc, nil
}

func (w *incoreC75) trace(e *env, p plan, base, r *result) error {
	g, ref := w.in.g, w.in.ref
	tr := newTracer(traceID(w.name()))
	w.dig.reset()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.start(0, layerHarness, "run")
	cc, err := drivenCore(e.ctx, tr, root, g, 0, func(span int, c clique.Clique) {
		id := tr.start(span, "reporter", "core.emit")
		w.dig.Emit(c)
		tr.end(id)
	})
	tr.end(root)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	if err := finishTrace(e, tr, w.name(), base, r); err != nil {
		return err
	}
	if !ref.matches(3, w.dig) {
		r.op(fmt.Errorf("benchmark-driven core loop: stream does not match the reference"))
	}
	if cc.cands != ref.cands {
		r.op(fmt.Errorf("benchmark-driven core loop consumed %d candidates, the facade run %d", cc.cands, ref.cands))
	}
	byName := tr.selfByName()
	l := r.layer
	l["core.seed_s"] = byName["core.seed"]
	l["core.seed_cands"] = float64(cc.seedCands)
	l["core.step_s"] = byName["core.step"]
	l["core.step_peak_level_s"] = tr.maxByName("core.step")
	l["core.emit_s"] = byName["core.emit"]
	l["core.cands"] = float64(cc.cands)
	l["core.sublists"] = float64(cc.sublists)
	l["core.and_words"] = float64(cc.cost.ANDWords)
	l["core.probes"] = float64(cc.cost.Probes)
	if s := byName["core.step"]; s > 0 {
		l["core.cands_per_s"] = float64(cc.cands) / s
	}
	l["core.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	l["core.mallocs"] = float64(after.Mallocs - before.Mallocs)

	start := time.Now()
	if _, _, _, err := core.SeedFromKParallel(g, 3, core.CNStore, maxWorkers, nil); err != nil {
		return err
	}
	l["core.seed_2w_s"] = time.Since(start).Seconds()

	// The pool, its dispatcher and its merge, seen from outside.
	w.dig.reset()
	pc, err := drivenPool(e.ctx, g, w.dig)
	if err != nil {
		return err
	}
	if !ref.matches(3, w.dig) {
		r.op(fmt.Errorf("benchmark-driven pool loop: stream does not match the reference"))
	}
	l["parallel.level_s"] = pc.levelS
	if pc.levelS > 0 {
		l["parallel.busy_frac"] = sum(pc.busy) / (maxWorkers * pc.levelS)
	}
	if mean := sum(pc.busy) / maxWorkers; mean > 0 {
		l["parallel.imbalance"] = maxOf(pc.busy) / mean
	}
	l["parallel.transfers"] = float64(pc.transfers)
	start = time.Now()
	if _, err := parallel.EnumerateBarrier(g, parallel.Options{Ctx: e.ctx, Workers: maxWorkers, Lo: 3, Strategy: parallel.Affinity}); err != nil {
		return err
	}
	l["parallel.barrier_wall_s"] = time.Since(start).Seconds()

	schedLayer(l)
	membudgetLayer(l)
	bitsetLayer(l, g.N(), "")
	bitsetLayer(l, 1<<20, "_1m")
	return nil
}

// schedLayer times the dispatcher and the in-order sequencer by
// themselves: one Dispatcher.Next per chunk, and one Sequencer.Deposit per
// item in the best (in order) and worst (reverse) arrival order.
func schedLayer(l map[string]float64) {
	const items = 4096
	loads := make([]int64, items)
	homes := make([]int32, items)
	for i := range loads {
		loads[i] = int64(64 + i%7)
		homes[i] = int32(i % maxWorkers)
	}
	grain := sched.ChunkGrain(loads, maxWorkers, 0)
	var spent time.Duration
	chunks := 0
	for round := 0; round < 200; round++ {
		d := sched.NewAffinityDispatcher(loads, homes, maxWorkers, sched.Policy{}, grain)
		start := time.Now()
		for w := 0; ; w = (w + 1) % maxWorkers {
			if _, ok := d.Next(w); !ok {
				break
			}
		}
		spent += time.Since(start)
		chunks += d.Chunks()
	}
	if chunks > 0 {
		l["sched.dispatch_ns"] = float64(spent.Nanoseconds()) / float64(chunks)
	}

	seq := sched.NewSequencer(items, func(int, int) {})
	l["sched.seq_inorder_ns"] = perOp(func() {
		seq.Reset(items)
		for i := 0; i < items; i++ {
			seq.Deposit(i, i)
		}
	}) / items
	l["sched.seq_reverse_ns"] = perOp(func() {
		seq.Reset(items)
		for i := items - 1; i >= 0; i-- {
			seq.Deposit(i, i)
		}
	}) / items
}

// membudgetLayer times the governor's two pairs: the charge every retained
// sub-list pays, and the reservation every admitted query pays.
func membudgetLayer(l map[string]float64) {
	gov := membudget.New(1 << 40)
	l["membudget.charge_ns"] = perOp(func() {
		gov.Charge(4096)
		gov.Release(4096)
	})
	l["membudget.reserve_ns"] = perOp(func() {
		res, err := gov.Reserve(1 << 20)
		if err != nil {
			panic(err) // a 1 MiB reservation of a 1 TiB budget cannot fail
		}
		sink += int(res.Close())
	})
}

// bitsetLayer times the kernels the join spends its time in, on operands
// of n bits.  The probes run with their witness in the first word, in the
// middle, and absent: an early-exiting kernel is three different costs.
func bitsetLayer(l map[string]float64, n int, suffix string) {
	// x and y share no bit, z is full: x&y&z is empty until a witness is
	// planted; x is a subset of full, so x&^full is empty likewise.
	x, y, full, dst := bitset.New(n), bitset.New(n), bitset.New(n), bitset.New(n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			x.Set(i)
		case 1:
			y.Set(i)
		}
	}
	full.SetAll()
	name := func(kernel string) string { return "bitset." + kernel + suffix + "_ns" }
	l[name("and")] = perOp(func() { dst.And(x, full) })
	l[name("count")] = perOp(func() { sink += x.Count() })
	l[name("andcount")] = perOp(func() { sink += x.AndCount(full) })

	probe := func(kernel, where string, at int, fn func() bool) {
		if at >= 0 {
			// Plant the witness: a bit in x and y (AndAny3), and a bit of
			// x missing from full (AndNotAny).
			y.Set(at - at%3)
			full.Clear(at - at%3)
		}
		l["bitset."+kernel+"_"+where+suffix+"_ns"] = perOp(func() {
			if fn() {
				sink++
			}
		})
		if at >= 0 {
			y.Clear(at - at%3)
			full.Set(at - at%3)
		}
	}
	all := bitset.New(n)
	all.SetAll()
	for _, pos := range []struct {
		where string
		at    int
	}{{"first", 3}, {"mid", n / 2}, {"none", -1}} {
		probe("andany3", pos.where, pos.at, func() bool { return bitset.AndAny3(x, y, all) })
		probe("andnotany", pos.where, pos.at, func() bool { return bitset.AndNotAny(x, full) })
	}
}
