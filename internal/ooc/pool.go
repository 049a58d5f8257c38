package ooc

import (
	"context"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/graph"
	"repro/internal/sched"
)

// pool is the in-process ShardRunner: persistent worker goroutines fed
// by a sched.Dispatcher, each reading its next shard ahead of the join.
// The workers start with the first level and stop with close.
type pool struct {
	g       graph.Interface
	opts    Options // Dir is the run directory itself
	workers []*poolWorker
	wg      sync.WaitGroup
}

func newPool(g graph.Interface, opts Options) *pool {
	return &pool{g: g, opts: opts}
}

func (p *pool) start() {
	if p.workers != nil {
		return
	}
	p.workers = make([]*poolWorker, p.opts.Workers)
	for i := range p.workers {
		w := &poolWorker{
			id:   i,
			p:    p,
			jobs: make(chan *levelJob, 1),
			join: NewJoiner(p.g),
		}
		// Per-worker bitmap scratch is resident for the whole run; the
		// governor hears about it like any other layer's footprint: what
		// the joiner holds now is charged here, the memo rows it adds
		// later by its builder.
		w.join.b.Gov = p.opts.Gov
		p.opts.Gov.Charge(w.join.ScratchBytes())
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
		p.opts.Gov.Release(w.join.ScratchBytes())
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
		disp:    sched.NewContiguousDispatcher(loads, p.opts.Workers, 1),
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

// runJob drains the dispatcher with one shard of read-ahead: the worker
// flattens its leased chunks into a local queue and, before joining a
// shard, starts a background read of the next queued shard's file — the
// double buffer that overlaps the level's I/O with the CPU-bound join.
// The delivery order is unchanged (the queue preserves lease order and
// the level loop still releases in shard order), so the clique stream is
// byte-identical with read-ahead on or off.  Every exit path drains the
// in-flight read first: its goroutine and its governor-charged buffer
// must not outlive the level.
//
//repro:ctxloop
func (w *poolWorker) runJob(job *levelJob) {
	opts := &w.p.opts
	shards := job.lv.Shards
	var queue []int
	var next *prefetched
	defer func() {
		if next != nil {
			next.await()
			opts.Gov.Release(shards[next.si].Bytes)
		}
	}()
	for {
		if job.ctx.Err() != nil {
			return
		}
		if len(queue) == 0 {
			chunk, ok := job.disp.Next(w.id)
			if !ok {
				return
			}
			queue = append(queue, chunk.Items...)
		}
		si := queue[0]
		queue = queue[1:]
		var data []byte
		if next != nil && next.si == si {
			d, err := next.await()
			next = nil
			if err != nil {
				opts.Gov.Release(shards[si].Bytes)
				if job.ctx.Err() != nil {
					return // level canceled; the level loop reports it
				}
				job.fail(err)
				return
			}
			data = d
		}
		// Lease ahead so the successor's read overlaps this shard's
		// join; the dispatcher stays the single source of assignment.
		if len(queue) == 0 {
			if chunk, ok := job.disp.Next(w.id); ok {
				queue = append(queue, chunk.Items...)
			}
		}
		if next == nil && len(queue) > 0 {
			next = w.startPrefetch(job, queue[0])
		}
		res, err := w.join.Join(job.ctx, &ShardJob{
			Dir:      opts.Dir,
			K:        job.lv.K,
			In:       shards[si],
			Data:     data,
			Compress: opts.Compress,
			Target:   job.lv.Target,
			Collect:  job.lv.Collect,
			Gov:      opts.Gov,
			Buf:      job.lv.Buf,
			NewShard: job.lv.NextShard,
			OnWrite:  job.lv.Wrote,
		})
		job.lv.Read(res.BytesRead)
		if data != nil {
			opts.Gov.Release(shards[si].Bytes)
		}
		if err != nil {
			job.fail(err)
			return
		}
		job.deliver(si, res)
	}
}

// prefetched is one shard's encoded file, read ahead of its join by a
// background goroutine.  await joins that goroutine; the shard's
// meta.Bytes stay charged to the governor from startPrefetch until the
// consumer (or the job's abandon path) releases them.
type prefetched struct {
	si   int
	data []byte
	err  error
	done chan struct{}
}

func (p *prefetched) await() ([]byte, error) {
	<-p.done
	return p.data, p.err
}

// startPrefetch charges the shard's encoded size to the governor and
// begins reading its file in the background — unless the file is more
// than a buffer may take under the run's budget: then it returns nil and
// the join streams the shard through a window when its turn comes.
func (w *poolWorker) startPrefetch(job *levelJob, si int) *prefetched {
	meta := job.lv.Shards[si]
	if job.lv.Buf > 0 && meta.Bytes > job.lv.Buf {
		return nil
	}
	w.p.opts.Gov.Charge(meta.Bytes)
	p := &prefetched{si: si, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		if err := job.ctx.Err(); err != nil {
			p.err = err
			return
		}
		data, err := os.ReadFile(filepath.Join(w.p.opts.Dir, meta.Path))
		if err == nil && int64(len(data)) != meta.Bytes {
			err = corrupt("%s: size %d, manifest expects %d", meta.Path, len(data), meta.Bytes)
		}
		p.data, p.err = data, err
	}()
	return p
}
