package ooc

import (
	"context"
	"sync"

	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/sched"
)

// pool is the in-process ShardRunner: persistent worker goroutines fed
// by a sched.Dispatcher, each joining its shards through the pipeline.
// The workers start with the first level and stop with close.
type pool struct {
	g       graph.Interface
	cfg     enumcfg.Config // Dir is the run directory itself
	gov     *membudget.Governor
	workers []*poolWorker
	wg      sync.WaitGroup
}

func newPool(g graph.Interface, cfg enumcfg.Config, gov *membudget.Governor) *pool {
	return &pool{g: g, cfg: cfg, gov: gov}
}

func (p *pool) start() {
	if p.workers != nil {
		return
	}
	p.workers = make([]*poolWorker, p.cfg.Workers)
	for i := range p.workers {
		w := &poolWorker{
			id:   i,
			p:    p,
			jobs: make(chan *levelJob, 1),
			join: NewJoiner(p.g),
		}
		// Per-worker scratch is resident for the whole run; the governor
		// hears about it like any other layer's footprint: what the joiner
		// holds now is charged here, what its local universe adds later by
		// its builder.
		w.join.b.Gov = p.gov
		p.gov.Charge(w.join.ScratchBytes())
		p.workers[i] = w
		p.wg.Add(1)
		go w.loop()
	}
}

func (p *pool) close() {
	for _, w := range p.workers {
		close(w.jobs)
	}
	p.wg.Wait()
	for _, w := range p.workers {
		p.gov.Release(w.join.ScratchBytes())
	}
}

// levelJob is one level's work order, broadcast to the pool.
type levelJob struct {
	lv      *Level
	disp    *sched.Dispatcher
	deliver func(shard int, res ShardResult)
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	firstErr error
}

// fail records the level's first error and cancels the level context so
// the other workers stop pulling work.  Later "canceled" errors from
// peers reacting to that cancel are discarded.
func (j *levelJob) fail(err error) {
	j.mu.Lock()
	if j.firstErr == nil {
		j.firstErr = err
	}
	j.mu.Unlock()
	j.cancel()
}

// RunLevel joins one level's shards on the pool.
func (p *pool) RunLevel(ctx context.Context, lv *Level, deliver func(shard int, res ShardResult)) error {
	p.start()
	loads := make([]int64, len(lv.Shards))
	for i, s := range lv.Shards {
		loads[i] = s.Records
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	job := &levelJob{
		lv:      lv,
		disp:    sched.NewContiguousDispatcher(loads, p.cfg.Workers, 1),
		deliver: deliver,
		ctx:     lctx,
		cancel:  cancel,
	}
	job.wg.Add(len(p.workers))
	for _, w := range p.workers {
		w.jobs <- job
	}
	job.wg.Wait()
	return job.firstErr
}

// poolWorker is one persistent pool thread.  Its Joiner's bitmaps and
// record scratch live for the whole run, so the spill hot loop
// allocates nothing per record (pinned by TestJoinHotLoopAllocs).
type poolWorker struct {
	id   int
	p    *pool
	jobs chan *levelJob
	join *Joiner
}

func (w *poolWorker) loop() {
	defer w.p.wg.Done()
	for job := range w.jobs {
		w.runJob(job)
		job.wg.Done()
	}
}

// runJob joins the worker's share of the level through the three-stage
// pipeline (pipeline.go): its decode-ahead stage leases shards from the
// dispatcher as it needs them, so the next shard's file is read and
// decoded while this one is joined, and its write-behind stage delivers
// each shard once the shard's output files are closed.  The delivery
// order is unchanged (the level loop still releases in shard order), so
// the clique stream is byte-identical at any depth of the queues.
func (w *poolWorker) runJob(job *levelJob) {
	p, lv := w.p, job.lv
	var queue []int
	next := func() (ShardMeta, int, bool) {
		if len(queue) == 0 {
			chunk, ok := job.disp.Next(w.id)
			if !ok {
				return ShardMeta{}, 0, false
			}
			queue = chunk.Items
		}
		si := queue[0]
		queue = queue[1:]
		return lv.Shards[si], si, true
	}
	read, err := w.join.run(job.ctx, &ShardJob{
		Dir:      p.cfg.Dir,
		K:        lv.K,
		Target:   lv.Target,
		Collect:  lv.Collect,
		Gov:      p.gov,
		Buf:      lv.Buf,
		NewShard: lv.NextShard,
		OnWrite:  lv.Wrote,
	}, next, job.deliver)
	lv.Read(read)
	if err != nil {
		job.fail(err)
	}
}
