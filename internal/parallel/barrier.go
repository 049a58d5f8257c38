package parallel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
)

// EnumerateBarrier is the previous bulk-synchronous implementation of the
// multithreaded Clique Enumerator, retained as the reference baseline the
// streaming pool (Pool, driven by core.Loop) is benchmarked against.  Per level it
// computes one static assignment, respawns a goroutine per worker, takes
// a full barrier, and buffers every emission until the barrier; seeding
// is sequential.
//
// Unlike the original version, seeding now assigns creator ownership
// (every seed block is owned by the seeding thread, worker 0), so the
// Affinity strategy's threshold balancer is in effect from the first
// generation level instead of silently falling back to a contiguous
// split.
//
// No backend selects it: the benchmark harness and this package's tests call it as their reference.
func EnumerateBarrier(g graph.Interface, opts Options) (*core.Result, error) {
	if err := checkOptions(&opts); err != nil {
		return nil, err
	}
	res := &core.Result{}
	observe := res.Fold(opts.OnLevel)

	// Seeding is sequential — part of the bulk-synchronous design this
	// baseline preserves.  All seed blocks are created by this thread, so
	// their home is worker 0.
	seed := clique.Tally{Next: opts.Reporter}
	lvl, homes, err := core.Seed(opts.Ctx, g, opts.Lo, 1, false, &seed, opts.Gov)
	if err != nil {
		return nil, err
	}
	res.Seeded(seed)

	// Governor charging mirrors the streaming pool's: builder scratch up
	// front, output blocks as they are sealed, consumed levels at barriers.
	// Enforcement is level-granular — the bulk-synchronous design has no
	// mid-level drain point — so a tripped budget aborts at the next
	// barrier rather than mid-level.
	gov := opts.Gov
	gov.Charge(lvl.Bytes())
	workers := make([]*barrierWorker, opts.Workers)
	for w := range workers {
		b := core.NewBuilder(g)
		b.Gov = gov
		gov.Charge(b.ScratchBytes())
		workers[w] = &barrierWorker{builder: b}
	}
	defer func() {
		for _, w := range workers {
			gov.Release(w.builder.ScratchBytes())
		}
	}()

	words := int64((g.N() + 63) / 64)
	for len(lvl.Sub) > 0 && (opts.Hi == 0 || lvl.K+1 <= opts.Hi) {
		// Cancellation is level-granular here: the bulk-synchronous
		// design has no mid-level pull point to interrupt.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			gov.Release(lvl.Bytes()) // retire the level before aborting
			return res, fmt.Errorf("parallel: canceled at level %d->%d: %w",
				lvl.K, lvl.K+1, opts.Ctx.Err())
		}
		lvlBytes := lvl.Bytes()
		// The level arrives as one seed block, or a few blocks per worker;
		// the static assignment wants units it can balance.
		lvl, homes = lvl.Recut(max(int(lvlBytes/4)/(64*opts.Workers), 64), homes)
		loads := make([]int64, len(lvl.Sub))
		for i := range lvl.Sub {
			loads[i] = lvl.Sub[i].Load(words)
		}

		var assign sched.Assignment
		transfers := 0
		if opts.Strategy == Affinity {
			assign = sched.ByHome(homes, opts.Workers)
			transfers = len(opts.Policy.Rebalance(assign, loads))
		} else {
			assign = sched.BalancedContiguous(loads, opts.Workers)
		}

		// Workers generate independently; the scheduler's barrier is the
		// WaitGroup.
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				workers[w].run(lvl, assign[w], opts.Reporter != nil)
			}(w)
		}
		wg.Wait()

		// Collect: merge next-level fragments and emissions in worker
		// order, record loads and stats, decide next homes.
		st := lvl.Consumed() // Recut moved no word: Bytes is lvlBytes
		st.Transfers = transfers
		st.WorkerBusy, st.WorkerCost = make([]float64, opts.Workers), make([]int64, opts.Workers)
		next := &core.Level{K: lvl.K + 1}
		homes = homes[:0]
		for w, wk := range workers {
			st.WorkerBusy[w] = wk.busy.Seconds()
			st.WorkerCost[w] = wk.builder.Cost.Units()
			st.Maximal += wk.builder.Maximal
			if opts.Reporter != nil {
				for _, c := range wk.emitted {
					opts.Reporter.Emit(c)
				}
			}
			made := wk.builder.Level(next.K).Sub
			next.Sub = append(next.Sub, made...)
			for range made {
				homes = append(homes, int32(w))
			}
		}
		observe(st)
		if gov.Over() {
			// gov.Err() reports Peak, so reconciling the consumed level and
			// the kept next level first does not distort the message.
			gov.Release(lvlBytes + next.Bytes())
			return res, fmt.Errorf("parallel: level %d->%d: %w", lvl.K, lvl.K+1, gov.Err())
		}
		gov.Release(lvlBytes)
		lvl = next
	}
	gov.Release(lvl.Bytes())
	return res, nil
}

type barrierWorker struct {
	builder *core.Builder
	emitted []clique.Clique
	busy    time.Duration
}

// run processes the assigned blocks of the level, buffering any emissions
// for ordered delivery after the barrier.
func (wk *barrierWorker) run(lvl *core.Level, items []int, collect bool) {
	wk.builder.Reset()
	wk.emitted = wk.emitted[:0]
	var rep clique.Reporter
	if collect {
		rep = clique.ReporterFunc(func(c clique.Clique) {
			wk.emitted = append(wk.emitted, append(clique.Clique(nil), c...))
		})
	}
	start := time.Now()
	for _, i := range items {
		for s := range lvl.Sub[i].Records(lvl.K) {
			wk.builder.ProcessSubList(s, rep)
		}
	}
	wk.busy = time.Since(start)
}
