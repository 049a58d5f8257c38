package ooc

import (
	"bufio"
	"context"
	"errors"
	"fmt"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/membudget"
)

// The shard join runs in three stages, so that the file system works
// beside the kernel instead of in its way (DESIGN.md §5.3):
//
//   - decode-ahead: a goroutine takes the worker's shards in order and
//     reads each a frame at a time through a window, straight into a
//     block buffer, where the frame's CRC and core.Verifier check it —
//     the block is the in-core level's, nothing is packed;
//   - join: the calling goroutine runs the in-core kernel over those
//     blocks — core.Iter, Builder.ProcessRecord, Mark/Since — exactly as
//     a pool worker does over a level in memory;
//   - write-behind: a goroutine writes the sealed output blocks' records
//     as frames into run-aligned shard files and closes them, and only
//     then delivers the shard's result.
//
// A block belongs to one stage at a time.  An input block is charged to
// the job's governor when decode-ahead has read it and released when the
// join is done with it, and its buffer goes back to decode-ahead.  An
// output block is charged to the builder's governor when the kernel seals
// it and released by write-behind once its records are in the file.  The
// kernel's arena recycles a chunk two builder Resets after it was filled,
// so the join hands its output on in generations of batches and Resets
// only once write-behind holds no batch of the generation before
// (writeBehind.turn): no chunk is reused while the writer still reads
// it.

// A worker's queues and buffers.  Of the shares of headroom a step gives
// each of a worker's buffers (Level.Buf), the read window and the write
// buffer take at most ioCap each — a bigger buffer saves syscalls, not
// time — and the block queues take the rest, split evenly between input
// and output.
const (
	queueDepth = 4        // input blocks in flight, at the most
	genBatches = 4        // output batches to a kernel arena generation, at the most
	ioCap      = 64 << 10 // the most a read window or write buffer takes
	minQueue   = 256      // the least a queue takes; a frame larger than a block buffer gets one of its own
)

// pipeShape is how a pipeline is sized.
type pipeShape struct {
	io    int64 // the read window's size and the write buffer's cap, through bufSize
	depth int   // input blocks in flight
	words int   // an input block's words; the join seals its output's whole runs at this many open words
	gen   int   // output batches to an arena generation: twice as many in flight, one at depth one
}

// shapeFor sizes a pipeline whose three buffers — a read window, the
// block queues and a write buffer — may take buf bytes each (0 =
// uncapped).  A queue with room for less than two blocks runs at depth one
// in blocks of that room: every stage waits for the next, which is the
// serial join.
func shapeFor(buf int64) pipeShape {
	const blk = core.MaxBlockBytes
	if buf <= 0 {
		return pipeShape{io: ioCap, depth: queueDepth, words: blk / 4, gen: genBatches}
	}
	s := pipeShape{io: min(buf, ioCap)}
	// What the two I/O buffers leave of all the shares, their floors
	// included.
	half := max(3*buf-2*max(s.io, minBuf), 0) / 2
	if half < 2*blk {
		s.depth, s.words, s.gen = 1, int(min(max(half, minQueue), blk)/4), 1
		return s
	}
	s.depth, s.words = int(min(half/blk, queueDepth)), blk/4
	s.gen = int(min(half/(2*blk), genBatches))
	return s
}

// inPiece is what decode-ahead hands the join, in order: the blocks of a
// shard, then its end.
type inPiece struct {
	tag  int        // the shard, as next named it
	blk  core.Block // a block of the shard's records
	buf  []uint32   // the buffer blk lives in, for decode-ahead to refill
	end  bool       // the shard is decoded; blk is empty
	read int64      // at the end: the shard's encoded bytes read
}

// outPiece is what the join hands write-behind, in order: batches of a
// shard's sealed output blocks, then its end.
type outPiece struct {
	tag    int
	blocks []core.Block
	end    *JoinStats // the shard is joined: what it found and read
}

// run joins the shards next hands out (with a tag for deliver) through the
// three stages; job's fields other than In describe all of them.  Each
// shard's result goes to deliver, from the write-behind goroutine, once
// its output shards are closed.  It returns the encoded bytes read — those
// of undelivered shards included — and the first error of any stage: a
// level cut short leaves its output files to the level driver's sweep.
func (j *Joiner) run(ctx context.Context, job *ShardJob,
	next func() (ShardMeta, int, bool), deliver func(int, ShardResult)) (int64, error) {
	pctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	shape := shapeFor(job.Buf)
	// One read window for every shard of the run, of the size shapeFor
	// budgets for it, so no shard makes a window of its own.
	if sz := bufSize(shape.io, 0); j.br == nil || j.br.Size() != sz {
		j.br = bufio.NewReaderSize(nil, sz)
	}
	dec := &decodeAhead{
		job:   job,
		n:     j.g.N(),
		out:   make(chan inPiece, shape.depth),  // a piece per buffer in flight
		free:  make(chan []uint32, shape.depth), // room for every buffer
		shape: shape,
		br:    j.br,
	}
	lw := NewLevelWriter(job.Dir, job.K+1, false, job.Target, job.Gov, job.NewShard, job.OnWrite)
	lw.bufCap, lw.bw = shape.io, j.bw
	wb := newWriteBehind(pctx, shape, j.b.Gov, lw)
	// The stages' buffers outlive the run, like the kernel's arena.
	for _, buf := range j.bufs {
		if len(buf) == shape.words && dec.made < shape.depth {
			dec.free <- buf
			dec.made++
		}
	}
	j.bufs = j.bufs[:0]
	go dec.run(pctx, cancel, next)
	go wb.run(pctx, cancel, deliver)

	j.b.Reset()
	j.mark = 0
	j.joinAll(pctx, cancel, job, dec, wb)
	// Whatever the join left unread is released here; what it handed on
	// is write-behind's to finish or drop.
	for p := range dec.out {
		job.Gov.Release(p.blk.Bytes())
		if p.buf != nil {
			j.bufs = append(j.bufs, p.buf)
		}
	}
	close(wb.in)
	<-wb.done
	for len(dec.free) > 0 {
		j.bufs = append(j.bufs, <-dec.free)
	}
	j.bw = lw.bw
	// The writer holds nothing now: what the kernel sealed and did not
	// hand on can go, and the arena may recycle.
	j.b.Abandon(j.mark)
	if pctx.Err() == nil {
		return dec.read, nil
	}
	err := context.Cause(pctx)
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		err = fmt.Errorf("ooc: canceled during level %d->%d: %w", job.K, job.K+1, err)
	}
	return dec.read, err
}

// joinAll is the join stage: it runs the kernel over every block
// decode-ahead hands over and passes the output on a chunk at a time,
// closing each shard with its end.  It stops at the end of the input or
// at the first error, which it reports through cancel.
//
//repro:ctxloop
func (j *Joiner) joinAll(ctx context.Context, cancel context.CancelCauseFunc, job *ShardJob,
	dec *decodeAhead, wb *writeBehind) {
	var st *JoinStats
	for {
		var p inPiece
		var ok bool
		select {
		case p, ok = <-dec.out:
		case <-ctx.Done():
			return
		}
		if !ok {
			return
		}
		if st == nil {
			st = &JoinStats{}
		}
		if p.end {
			st.BytesRead = p.read
			if j.flush(st, wb, true) != nil {
				return
			}
			select {
			case wb.in <- outPiece{tag: p.tag, end: st}:
			case <-ctx.Done():
				return
			}
			st = nil
			continue
		}
		err := j.joinBlock(&p.blk, job.K, dec.shape.words, collector(st, job.Collect), st, wb)
		job.Gov.Release(p.blk.Bytes())
		select {
		case dec.free <- p.buf: // never full: it holds at most every buffer there is
		default:
		}
		if err != nil {
			cancel(err)
			return
		}
	}
}

// collector is the reporter a join's maximal cliques go to: the shard's
// emission arena when a reporter listens, nobody otherwise.
func collector(st *JoinStats, collect bool) clique.Reporter {
	if collect {
		return st
	}
	return nil
}

// joinBlock runs the kernel over one block of size-k records, handing the
// output to out a sealed chunk at a time — sealing its whole runs once
// batch words are open — and, at the end of the block, all of it.  A
// block ends where its input starts a run, so the output sealed there
// starts a run the carry rule starts in any case; a cut anywhere else
// would start one of its own and change the level's words.
func (j *Joiner) joinBlock(blk *core.Block, k, batch int, rep clique.Reporter, st *JoinStats, out output) error {
	it, b := &j.it, j.b
	it.Reset(k, blk)
	for s := it.Next(); s != nil; s = it.Next() {
		if err := b.ProcessRecord(s, rep); err != nil {
			return fmt.Errorf("ooc: shard of %d-cliques: %w", k, err)
		}
		if b.Open() >= batch {
			b.SealRuns()
		}
		if b.Mark() > j.mark {
			if err := j.flush(st, out, false); err != nil {
				return err
			}
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	return j.flush(st, out, true)
}

// output is where a join's sealed blocks go: write takes a batch and its
// charges, whatever happens; turn reports whether the builder may Reset —
// start its next arena generation — because the writer reads no chunk
// the Reset recycles.
type output interface {
	write(blocks []core.Block) error
	turn() (bool, error)
}

// flush hands out what the kernel has sealed beyond the batches already
// handed on — with all, everything it holds, what is open sealed first,
// and then the builder Resets when out says it may: only there, where
// nothing of it is open.  The kernel's counters move to st as they stand,
// so each shard counts its own work.
func (j *Joiner) flush(st *JoinStats, out output, all bool) error {
	b := j.b
	blocks := b.Sealed(j.mark)
	if all {
		blocks = b.Since(j.mark)
	}
	st.Maximal += b.Maximal
	st.Dropped += b.Dropped
	st.Cost.Add(b.Cost)
	b.Maximal, b.Dropped, b.Cost = 0, 0, core.Cost{}
	j.mark = b.Mark()
	var err error
	if len(blocks) > 0 {
		err = out.write(blocks)
	}
	reset := false
	if all && err == nil {
		reset, err = out.turn()
	}
	if reset || err != nil {
		// On an error nothing more is sealed this run: the handed-on
		// blocks only leave the builder's list.
		b.Reset()
		j.mark = 0
	}
	return err
}

// decodeAhead is the first stage: it reads ahead of the join into at
// most shape.depth buffers of shape.words words — larger for a frame
// that needs it — which the join hands back.
type decodeAhead struct {
	job   *ShardJob
	n     int // vertex universe of the graph
	out   chan inPiece
	free  chan []uint32
	shape pipeShape
	made  int           // buffers allocated so far
	br    *bufio.Reader // the read window every shard is read through
	read  int64         // bytes read; the join reads it once out is closed
}

// run decodes the shards next hands out until there are none, the
// context ends or a shard fails, which it reports through cancel.
//
//repro:ctxloop
func (d *decodeAhead) run(ctx context.Context, cancel context.CancelCauseFunc, next func() (ShardMeta, int, bool)) {
	defer close(d.out)
	for ctx.Err() == nil {
		meta, tag, ok := next()
		if !ok {
			return
		}
		if err := d.shard(ctx, meta, tag); err != nil {
			cancel(err)
			return
		}
	}
}

// shard reads one shard's blocks, hands them on, and then the end of the
// shard.
//
//repro:ctxloop
func (d *decodeAhead) shard(ctx context.Context, meta ShardMeta, tag int) (err error) {
	job := d.job
	r, err := openShard(job.Dir, meta, job.K, d.n, job.Gov, d.br)
	if err != nil {
		return err
	}
	defer func() {
		d.read += r.BytesRead()
		err = errors.Join(err, r.Close())
	}()
	for {
		var buf []uint32
		if d.made < d.shape.depth {
			d.made++
			buf = make([]uint32, d.shape.words)
		} else {
			select {
			case buf = <-d.free:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		blk, buf, err := r.block(buf)
		if err != nil {
			return err
		}
		p := inPiece{tag: tag, blk: blk, buf: buf}
		if len(blk.Words()) == 0 {
			p = inPiece{tag: tag, end: true, read: r.BytesRead()}
			select {
			case d.free <- buf: // the next shard's; there is room for every buffer
			default:
			}
		}
		job.Gov.Charge(p.blk.Bytes())
		select {
		case d.out <- p:
		case <-ctx.Done():
			job.Gov.Release(p.blk.Bytes())
			return ctx.Err()
		}
		if p.end {
			return nil
		}
	}
}

// writeBehind is the third stage: it writes batches of sealed blocks
// into shard files through a LevelWriter, restarted for every shard,
// releases the blocks' charge on gov, and delivers each shard's result
// once its files are closed.  slots bounds the batches it holds — twice a
// generation's, or one at depth one: the join takes a slot as it hands a
// batch over, the writer frees one per batch done.
type writeBehind struct {
	ctx   context.Context
	in    chan outPiece
	slots chan struct{}
	gen   int // batches to a generation
	n     int // batches handed over since the builder's last Reset
	done  chan struct{}
	gov   *membudget.Governor
	lw    *LevelWriter // restarted for every shard
}

func newWriteBehind(ctx context.Context, s pipeShape, gov *membudget.Governor, lw *LevelWriter) *writeBehind {
	slots := 2 * s.gen
	if s.depth == 1 {
		slots = 1
	}
	return &writeBehind{
		ctx:   ctx,
		in:    make(chan outPiece, slots+1), // the batches in flight and a shard's end
		slots: make(chan struct{}, slots),
		gen:   s.gen,
		done:  make(chan struct{}),
		gov:   gov,
		lw:    lw,
	}
}

// write hands blocks to the writer, which owns them and their charges
// from here on whatever happens.
func (w *writeBehind) write(blocks []core.Block) error {
	select {
	case w.slots <- struct{}{}:
	case <-w.ctx.Done():
		release(w.gov, blocks)
		return w.ctx.Err()
	}
	select {
	case w.in <- outPiece{blocks: blocks}:
	case <-w.ctx.Done():
		release(w.gov, blocks)
		return w.ctx.Err()
	}
	w.n++
	return nil
}

// turn, once a generation's worth of batches has been handed over since
// the builder's last Reset, waits until the writer holds none of the
// batches before them and reports that the builder may Reset now.  The
// writer takes batches in order and holds at most cap(slots), so holding
// every slot but those of the n last batches means it is done with every
// earlier one.
func (w *writeBehind) turn() (bool, error) {
	if w.n < w.gen {
		return false, nil
	}
	extra := cap(w.slots) - w.n
	for i := 0; i < extra; i++ {
		select {
		case w.slots <- struct{}{}:
		case <-w.ctx.Done():
			return false, w.ctx.Err()
		}
	}
	for i := 0; i < extra; i++ {
		<-w.slots
	}
	w.n = 0
	return true, nil
}

// run writes what the join hands over until it closes in.  After the
// first error — its own, reported through cancel, or anyone's — it only
// releases what arrives, so the join never blocks on it.
//
//repro:ctxloop
func (w *writeBehind) run(ctx context.Context, cancel context.CancelCauseFunc, deliver func(int, ShardResult)) {
	defer close(w.done)
	for p := range w.in {
		var err error
		switch {
		case ctx.Err() != nil:
		case p.end == nil:
			err = w.lw.writeBlocks(p.blocks)
		default:
			var out []ShardMeta
			out, err = w.lw.Finish()
			w.lw.restart()
			if err == nil {
				deliver(p.tag, ShardResult{JoinStats: *p.end, Out: out})
			}
		}
		if p.end == nil {
			release(w.gov, p.blocks)
			<-w.slots
		}
		if err != nil {
			cancel(err)
		}
	}
	if err := w.lw.Abort(); err != nil {
		cancel(err)
	}
}

// release gives up the charge of blocks nobody will read again.
func release(gov *membudget.Governor, blocks []core.Block) {
	for i := range blocks {
		gov.Release(blocks[i].Bytes())
	}
}
