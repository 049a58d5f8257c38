package ooc

import (
	"context"
	"sync"

	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/sched"
)

// pool is the in-process ShardRunner: one Joiner per worker, kept for the
// run, so its bitmaps and record scratch are allocated once and the spill
// hot loop allocates nothing per record (pinned by TestJoinHotLoopAllocs).
// Every level runs each Joiner on a goroutine of its own, fed by a
// sched.Dispatcher; the goroutine returns with the level.
type pool struct {
	g       graph.Interface
	cfg     enumcfg.Config // Dir is the run directory itself
	gov     *membudget.Governor
	joiners []*Joiner
}

func newPool(g graph.Interface, cfg enumcfg.Config, gov *membudget.Governor) *pool {
	return &pool{g: g, cfg: cfg, gov: gov}
}

// start makes the Joiners at the first level.  Their scratch is resident
// for the whole run; the governor hears about it like any other layer's
// footprint: what a joiner holds now is charged here, what its local
// universe adds later by its builder.
func (p *pool) start() {
	if p.joiners != nil {
		return
	}
	p.joiners = make([]*Joiner, p.cfg.Workers)
	for i := range p.joiners {
		j := NewJoiner(p.g)
		j.b.Gov = p.gov
		p.gov.Charge(j.ScratchBytes())
		p.joiners[i] = j
	}
}

func (p *pool) close() {
	for _, j := range p.joiners {
		p.gov.Release(j.ScratchBytes())
	}
}

// RunLevel joins one level's shards on the pool and returns the first
// error a worker met, which cancels the others; their later errors, most
// of them reactions to that cancel, are dropped.
func (p *pool) RunLevel(ctx context.Context, lv *Level, deliver func(shard int, res ShardResult)) error {
	p.start()
	loads := make([]int64, len(lv.Shards))
	for i, s := range lv.Shards {
		loads[i] = s.Records
	}
	disp := sched.NewContiguousDispatcher(loads, len(p.joiners), 1)
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for w, j := range p.joiners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.join(lctx, lv, disp, w, j, deliver); err != nil {
				once.Do(func() { first = err })
				cancel()
			}
		}()
	}
	wg.Wait()
	return first
}

// join runs worker w's share of the level through j's three-stage
// pipeline (pipeline.go): its decode-ahead stage leases shards from the
// dispatcher as it needs them, so the next shard's file is read and
// decoded while this one is joined, and its write-behind stage delivers
// each shard once the shard's output files are closed.  The delivery
// order is unchanged (the level loop still releases in shard order), so
// the clique stream is byte-identical at any depth of the queues.
func (p *pool) join(ctx context.Context, lv *Level, disp *sched.Dispatcher, w int, j *Joiner,
	deliver func(int, ShardResult)) error {
	var queue []int
	next := func() (ShardMeta, int, bool) {
		if len(queue) == 0 {
			chunk, ok := disp.Next(w)
			if !ok {
				return ShardMeta{}, 0, false
			}
			queue = chunk.Items
		}
		si := queue[0]
		queue = queue[1:]
		return lv.Shards[si], si, true
	}
	read, err := j.run(ctx, &ShardJob{
		Dir:      p.cfg.Dir,
		K:        lv.K,
		Target:   lv.Target,
		Collect:  lv.Collect,
		Gov:      p.gov,
		Buf:      lv.Buf,
		NewShard: lv.NextShard,
		OnWrite:  lv.Wrote,
	}, next, deliver)
	lv.Read(read)
	return err
}
