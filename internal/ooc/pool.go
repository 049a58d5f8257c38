package ooc

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// pool is the in-process ShardRunner: one Joiner per worker, kept for the
// run, so its universe and record scratch are allocated once and the spill
// hot loop allocates nothing per record (pinned by TestJoinHotLoopAllocs).
// Every level runs each Joiner's two stages on goroutines of their own,
// which return with the level; the workers claim the level's shards in
// order from one list.
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
// universe adds later by its builder.  The pipelines are shaped once,
// from the shares of the headroom the spilled phase starts with, before
// the joiners' scratch is charged, so every level reuses their buffers.
func (p *pool) start() {
	if p.joiners != nil {
		return
	}
	buf := bufShare(p.gov, 3*p.cfg.Workers) // a worker's three: read window, block queues, write buffer
	p.joiners = make([]*Joiner, p.cfg.Workers)
	for i := range p.joiners {
		j := newJoiner(p.g, buf)
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
// of them reactions to that cancel, are dropped.  Each worker's
// decode-ahead claims the next shard as it needs one, so the next shard's
// file is read while this one is joined; the delivery order does not
// matter (the level loop releases in shard order), so the clique stream
// is byte-identical at any depth of the queues.
func (p *pool) RunLevel(ctx context.Context, lv *Level, deliver func(shard int, res ShardResult)) error {
	p.start()
	src := &shardList{shards: lv.Shards}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for _, j := range p.joiners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read, err := j.run(lctx, &ShardJob{
				Dir:      p.cfg.Dir,
				K:        lv.K,
				Target:   lv.Target,
				Collect:  lv.Collect,
				Gov:      p.gov,
				NewShard: lv.NextShard,
				OnWrite:  lv.Wrote,
			}, src, deliver)
			lv.Read(read)
			if err != nil {
				once.Do(func() { first = err })
				cancel()
			}
		}()
	}
	wg.Wait()
	return first
}

// shardList is a level's shards as the workers claim them: in order, one
// at a time, shared among the workers — the contiguous schedule at grain
// one.
type shardList struct {
	shards []ShardMeta
	next   atomic.Int64
}

// claim takes the next shard and its index in the level; false once every
// shard is taken.
func (l *shardList) claim() (ShardMeta, int, bool) {
	i := int(l.next.Add(1) - 1)
	if i >= len(l.shards) {
		return ShardMeta{}, 0, false
	}
	return l.shards[i], i, true
}
