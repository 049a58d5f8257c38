package ooc

import (
	"context"
	"sync"

	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// pool is the in-process ShardRunner: one Joiner per worker, kept for the
// run, so its bitmaps and record scratch are allocated once and the spill
// hot loop allocates nothing per record (pinned by TestJoinHotLoopAllocs).
// Each Joiner's decode-ahead stage lives for the spilled run: it claims
// the shards of a level's feed in order, shared with the other workers,
// and goes on to the next level's feed while the join still finishes
// this one.  Every level runs each Joiner's join and write-behind on
// goroutines of their own, which return with the level.
type pool struct {
	g       graph.Interface
	cfg     enumcfg.Config // Dir is the run directory itself
	gov     *membudget.Governor
	joiners []*Joiner
}

func newPool(g graph.Interface, cfg enumcfg.Config, gov *membudget.Governor) *pool {
	return &pool{g: g, cfg: cfg, gov: gov}
}

// start makes the Joiners at the first level and starts their
// decode-ahead on lv's feed.  Their scratch is resident for the whole
// run; the governor hears about it like any other layer's footprint:
// what a joiner holds now is charged here, what its local universe adds
// later by its builder.  Decode-ahead lives for the run too, in a
// pipeline shaped once, from the shares of the headroom the spilled
// phase starts with (bufShare); it follows the feeds from level to level
// as the loop runs them, in order.  No level runs after a failed one, so
// a stopped decode-ahead is never started again.
func (p *pool) start(ctx context.Context, lv *Level) {
	if p.joiners != nil {
		return
	}
	buf := bufShare(p.gov, 3*p.cfg.Workers) // a worker's three: read window, block queues, write buffer
	p.joiners = make([]*Joiner, p.cfg.Workers)
	for i := range p.joiners {
		p.joiners[i] = NewJoiner(p.g)
		p.joiners[i].b.Gov = p.gov
		p.gov.Charge(p.joiners[i].ScratchBytes())
	}
	for _, j := range p.joiners {
		j.ahead(ctx, p.cfg.Dir, p.gov, buf, lv.feed)
	}
}

func (p *pool) close() {
	for _, j := range p.joiners {
		j.stop()
		p.gov.Release(j.ScratchBytes())
	}
}

// RunLevel joins one level's shards on the pool and returns the first
// error a worker met, which cancels the others; their later errors, most
// of them reactions to that cancel, are dropped.  Decode-ahead goes on
// from the level's feed to the next, unless the level fails: then it
// stops, as no level follows a failed one.
func (p *pool) RunLevel(ctx context.Context, lv *Level, deliver func(shard int, res ShardResult)) error {
	p.start(ctx, lv)
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
			read, err := j.level(lctx, &ShardJob{
				Dir:      p.cfg.Dir,
				K:        lv.K,
				Target:   lv.Target,
				Collect:  lv.Collect,
				Gov:      p.gov,
				NewShard: lv.NextShard,
				OnWrite:  lv.Wrote,
			}, deliver)
			lv.Read(read)
			if err != nil {
				once.Do(func() { first = err })
				cancel()
			}
		}()
	}
	wg.Wait()
	if first != nil {
		for _, j := range p.joiners {
			lv.Read(j.stop())
		}
	}
	return first
}

// feed is a level's shard list as the step before produces it: the level
// loop publishes each produced shard as the sequencer releases it, and
// the decode-ahead stages claim them in order, one at a time, shared
// among the workers — the contiguous schedule at grain one.  The loop
// closes a feed when the level it feeds starts, naming the feed of the
// level after it (nil when no level may follow: Hi), which is where
// decode-ahead goes once it has claimed the last shard.
type feed struct {
	k int // clique size of the level's records

	mu     sync.Mutex
	shards []ShardMeta // the level so far; once its producer has returned, all of it
	taken  int
	closed bool
	next   *feed
	more   chan struct{} // closed when shards grow or the feed closes, while a claim waits
}

func newFeed(k int, shards []ShardMeta) *feed { return &feed{k: k, shards: shards} }

func (f *feed) publish(shards []ShardMeta) {
	f.mu.Lock()
	f.shards = append(f.shards, shards...)
	f.wake()
	f.mu.Unlock()
}

// close ends the feed, once, when the level it feeds starts.
func (f *feed) close(next *feed) {
	f.mu.Lock()
	f.closed, f.next = true, next
	f.wake()
	f.mu.Unlock()
}

func (f *feed) wake() {
	if f.more != nil {
		close(f.more)
		f.more = nil
	}
}

// claim takes the next shard and its index in the level, waiting until
// one is published; false once the feed is closed and every shard taken,
// or ctx ends.
func (f *feed) claim(ctx context.Context) (ShardMeta, int, bool) {
	for {
		f.mu.Lock()
		if i := f.taken; i < len(f.shards) {
			f.taken++
			s := f.shards[i]
			f.mu.Unlock()
			return s, i, true
		}
		if f.closed {
			f.mu.Unlock()
			return ShardMeta{}, 0, false
		}
		if f.more == nil {
			f.more = make(chan struct{})
		}
		more := f.more
		f.mu.Unlock()
		select {
		case <-more:
		case <-ctx.Done():
			return ShardMeta{}, 0, false
		}
	}
}
