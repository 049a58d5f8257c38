package ooc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/membudget"
)

// The shard join runs in two stages, so that reading the file system
// works beside the kernel instead of in its way (DESIGN.md §5.3):
//
//   - decode-ahead: a goroutine of the level claims the level's shards
//     in order, one at a time from the list the workers share, and
//     reads each a frame at a time through a window, straight into a
//     block buffer, where the frame's CRC and core.Verifier check it; the
//     verifier's one walk of the frame hands each record to the buffer's
//     core.Admissions, which admits it in place through the kernel's
//     admission half (core.Admitter) — its tails become local ids in
//     N(p0) — and keeps what the join reads that the block lacks:
//     CN(prefix), and the rows admission built — nothing is walked,
//     checked or mapped twice;
//   - join: the calling goroutine runs the kernel's join half
//     (Builder.Join) over those blocks and their admissions, writes the
//     output it seals as frames into run-aligned shard files without
//     starting a run of its own (Sealed, SealRuns, and Since at a block's
//     end), and at a shard's end closes its files and only then delivers
//     the shard's result.
//
// The two start and end with the level (Joiner.run).  A shard that
// decode-ahead cannot read fails the level: decode-ahead cancels it with
// the error, as the join does with its own, which ends the other stage.
// Decode-ahead's queues, buffers and read window stay with the Joiner
// from level to level (newJoiner).
//
// A block belongs to one stage at a time, and so does the admitter: its
// universe and memo are decode-ahead's, and the join holds no universe,
// only its copy of the group, built from the rows it is handed — no
// mutable memory is shared across stages.  An input block is charged
// to the job's governor with its admissions when decode-ahead has read
// it and released when the join is done with it, and its buffer goes
// back to decode-ahead.  An output block is charged to the builder's
// governor when the kernel seals it and released once the join has
// written its records; every input block's output is written by its
// end, so the builder Resets there and its arena recycles nothing the
// writer still reads.

// A worker's queues and buffers.  Of the shares of headroom the spilled
// phase gives each of a worker's buffers (bufShare), the read window and
// the write buffer take at most ioCap each — a bigger buffer saves
// syscalls, not time — and the block queues take the rest, split evenly
// between input (the blocks and their admissions) and output (what the
// join holds open until it writes it).
const (
	queueDepth = 4        // input blocks in flight, at the most
	ioCap      = 64 << 10 // the most a read window or write buffer takes
	minQueue   = 256      // the least a queue takes; a frame larger than a block buffer gets one of its own
)

// pipeShape is how a pipeline is sized.
type pipeShape struct {
	io    int64 // the read window's size and the write buffer's cap, through bufSize
	depth int   // input blocks in flight
	words int   // an input block buffer's words: a block and its admissions fill its 4·words bytes, the last frame's admissions past them (DESIGN §5.3); the join seals its output's whole runs at this many open words
}

// shapeFor sizes a pipeline whose three buffers — a read window, the
// block queues and a write buffer — may take buf bytes each (0 =
// uncapped).  A queue with room for less than two blocks runs at depth one
// in blocks of that room: each stage waits for the other, which is the
// serial join.
func shapeFor(buf int64) pipeShape {
	const blk = core.MaxBlockBytes
	if buf <= 0 {
		return pipeShape{io: ioCap, depth: queueDepth, words: blk / 4}
	}
	s := pipeShape{io: min(buf, ioCap)}
	// What the two I/O buffers leave of all the shares, their floors
	// included.
	half := max(3*buf-2*max(s.io, minBuf), 0) / 2
	if half < 2*blk {
		s.depth, s.words = 1, int(min(max(half, minQueue), blk)/4)
		return s
	}
	s.depth, s.words = int(min(half/blk, queueDepth)), blk/4
	return s
}

// inPiece is what decode-ahead hands the join, in order: the blocks of a
// shard with their admissions, then its end; after the level's last
// shard, the level's end.
type inPiece struct {
	tag   int   // the shard, its index in the level
	buf   inBuf // a block of the shard's records, bound to its admissions
	bytes int64 // its charge on the job's governor
	end   bool  // the shard is decoded; buf is empty
	read  int64 // at the end: the shard's encoded bytes read
	done  bool  // the level has no more shards
}

// inBuf is an input block buffer and the admissions of the block read
// into it.
type inBuf struct {
	words []uint32
	recs  *core.Admissions
}

// run joins the shards src hands out (with their index for deliver)
// through the two stages, as one level of size-job.K records; job's
// fields other than In describe all of them.  Each shard's result goes
// to deliver, from the calling goroutine, once its output shards are
// closed.  It returns the encoded bytes read — those of undelivered
// shards included — and the first error of either stage: a level cut
// short leaves its output files to the level driver's sweep.
func (j *Joiner) run(ctx context.Context, job *ShardJob, src *shardList, deliver func(int, ShardResult)) (int64, error) {
	pctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	dec := j.dec
	lw := NewLevelWriter(job.Dir, job.K+1, false, job.Target, job.Gov, job.NewShard, job.OnWrite)
	lw.bufCap, lw.bw = dec.shape.io, j.bw
	j.adm.Leave() // the join's copy of a group starts where decode-ahead enters it
	dec.job, dec.gov = job, j.b.Gov
	dec.wg.Add(1)
	go dec.run(pctx, cancel, src)

	j.b.Reset()
	j.mark = 0
	read := j.joinAll(pctx, cancel, job, dec, lw, deliver)
	// Decode-ahead has ended the level or seen the cancel; what it left in
	// its queue is released here, and a shard cut short is closed.
	dec.wg.Wait()
	read += dec.drain()
	if err := lw.Abort(); err != nil {
		cancel(err)
	}
	j.bw = lw.bw
	// What the kernel sealed and did not write can go.
	j.b.Abandon(j.mark)
	if pctx.Err() == nil {
		return read, nil
	}
	err := context.Cause(pctx)
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		err = fmt.Errorf("ooc: canceled during level %d->%d: %w", job.K, job.K+1, err)
	}
	return read, err
}

// joinAll is the join stage: it runs the kernel's join half over every
// admitted block decode-ahead hands over and writes the output through
// lw a chunk at a time; at each shard's end it closes the shard's files
// and delivers its result.  It stops at the level's end or at the first
// error, which it reports through cancel, and returns the encoded bytes
// of the shards it closed.
//
//repro:ctxloop
func (j *Joiner) joinAll(ctx context.Context, cancel context.CancelCauseFunc, job *ShardJob,
	dec *decodeAhead, lw *LevelWriter, deliver func(int, ShardResult)) (read int64) {
	out := serialOutput{lw: lw, gov: j.b.Gov}
	var st *JoinStats
	var wait time.Duration
	for {
		var p inPiece
		t := time.Now()
		select {
		case p = <-dec.out:
		case <-ctx.Done():
			return read
		}
		wait += time.Since(t)
		if p.done {
			return read
		}
		if st == nil {
			st = &JoinStats{}
		}
		if p.end {
			st.BytesRead, st.Wait = p.read, wait
			read, wait = read+p.read, 0
			err := j.flush(st, out, true)
			var files []ShardMeta
			if err == nil {
				files, err = lw.Finish()
				lw.restart()
			}
			if err != nil || ctx.Err() != nil {
				cancel(err) // err is nil only when the level is canceled already
				return read
			}
			deliver(p.tag, ShardResult{JoinStats: *st, Out: files})
			st = nil
			continue
		}
		err := j.joinBlock(p.buf.recs, dec.shape.words, collector(st, job.Collect), st, out)
		job.Gov.Release(p.bytes)
		select {
		case dec.free <- p.buf: // never full: it holds at most every buffer there is
		default:
		}
		if err != nil {
			cancel(err)
			return read
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

// joinBlock runs the kernel's join half over one admitted block, handing
// the output to out a sealed chunk at a time — sealing its whole runs
// once batch words are open — and, at the end of the block, all of it.
// A block ends where its input starts a run, so the output sealed there
// starts a run the carry rule starts in any case; a cut anywhere else
// would start one of its own and change the level's words.
func (j *Joiner) joinBlock(recs *core.Admissions, batch int, rep clique.Reporter, st *JoinStats, out output) error {
	a, b := &j.rec, j.b
	for recs.Next(a, b.Gov) {
		b.Join(a, rep)
		if b.Open() >= batch {
			b.SealRuns()
		}
		if b.Mark() > j.mark {
			if err := j.flush(st, out, false); err != nil {
				return err
			}
		}
	}
	return j.flush(st, out, true)
}

// joinSerial joins the shard r reads on the calling goroutine — a block
// of about words words read and admitted, then joined, at a time: the
// two stages in turn, the serial join — handing the output to out.
//
//repro:ctxloop
func (j *Joiner) joinSerial(ctx context.Context, r *ShardReader, words int, rep clique.Reporter, st *JoinStats, out output) error {
	buf := inBuf{words: make([]uint32, words), recs: core.NewAdmissions(words)}
	j.adm.Leave()
	j.b.Reset()
	j.mark = 0
	for {
		if ctx.Err() != nil {
			return fmt.Errorf("ooc: canceled during level %d->%d: %w", r.k, r.k+1, ctx.Err())
		}
		more, err := buf.read(r, j.adm, j.b.Gov)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if err := j.joinBlock(buf.recs, len(buf.words), rep, st, out); err != nil {
			return err
		}
	}
	st.BytesRead = r.BytesRead()
	return j.flush(st, out, true)
}

// output is where a join's sealed blocks go: write takes a batch and its
// charges, whatever happens, and is done with it when it returns.
type output interface {
	write(blocks []core.Block) error
}

// flush writes what the kernel has sealed beyond the batches already
// written — with all, everything it holds, what is open sealed first,
// and then the builder Resets: only there, where nothing of it is open.
// The kernel's counters move to st as they stand, so each shard counts
// its own work.
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
	if all || err != nil {
		// Every block sealed is written, or dropped on an error, after
		// which nothing more is sealed this run: they only leave the
		// builder's list.
		b.Reset()
		j.mark = 0
	}
	return err
}

// decodeAhead is the first stage: it reads ahead of the join into at
// most shape.depth buffers of shape.words words — larger for a frame that
// needs it — and admits every record it has checked, in place, the rows
// it builds going into the buffer's admissions; the join hands the
// buffers back.  Its goroutine runs for one level; the queues, buffers
// and window stay with the Joiner.
type decodeAhead struct {
	job   *ShardJob // the level's
	n     int       // vertex universe of the graph
	out   chan inPiece
	free  chan inBuf
	shape pipeShape
	made  int            // buffers allocated and not lost to a failed level
	br    *bufio.Reader  // the read window every shard is read through
	read  int64          // bytes of shards no end piece carried; read once the level's goroutine is done
	wg    sync.WaitGroup // the level's goroutine

	adm *core.Admitter
	gov *membudget.Governor // what the admitter grows on: the builder's
}

// run decodes the shards src hands out, then hands on the level's end,
// until ctx ends.  A shard that fails cancels the level with its error.
//
//repro:ctxloop
func (d *decodeAhead) run(ctx context.Context, cancel context.CancelCauseFunc, src *shardList) {
	defer d.wg.Done()
	for {
		meta, tag, ok := src.claim()
		if !ok {
			break
		}
		if err := d.shard(ctx, meta, tag); err != nil {
			cancel(fmt.Errorf("ooc: level %d->%d: %w", d.job.K, d.job.K+1, err))
			return
		}
	}
	select {
	case d.out <- inPiece{done: true}:
	case <-ctx.Done():
	}
}

// drain, once the level's goroutine is done, releases what it left in
// its queue, takes the buffers back, and returns the bytes it read that
// no join counted.  Buffers a failed level dropped are made anew.
func (d *decodeAhead) drain() int64 {
	read := d.read
	d.read = 0
	for len(d.out) > 0 {
		p := <-d.out
		d.job.Gov.Release(p.bytes)
		read += p.read
		if p.buf.recs != nil {
			d.free <- p.buf
		}
	}
	d.made = len(d.free)
	return read
}

// shard reads one shard's blocks, whose records the verifier's walk
// admits, hands them on, and then the end of the shard.
//
//repro:ctxloop
func (d *decodeAhead) shard(ctx context.Context, meta ShardMeta, tag int) (err error) {
	job := d.job
	r, err := openShard(job.Dir, meta, job.K, d.n, job.Gov, d.br)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			d.read += r.BytesRead()
		}
		err = errors.Join(err, r.Close())
	}()
	for {
		var buf inBuf
		if d.made < d.shape.depth {
			d.made++
			buf = inBuf{words: make([]uint32, d.shape.words), recs: core.NewAdmissions(d.shape.words)}
		} else {
			select {
			case buf = <-d.free:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		more, err := buf.read(r, d.adm, d.gov)
		if err != nil {
			return err
		}
		p := inPiece{tag: tag, buf: buf, bytes: buf.recs.Bytes()}
		if !more {
			p = inPiece{tag: tag, end: true, read: r.BytesRead()}
			select {
			case d.free <- buf: // the next shard's; there is room for every buffer
			default:
			}
		}
		job.Gov.Charge(p.bytes)
		select {
		case d.out <- p:
		case <-ctx.Done():
			job.Gov.Release(p.bytes)
			return ctx.Err()
		}
		if p.end {
			return nil
		}
	}
}

// read reads the shard's next block into the buffer, its records
// admitted by adm as the verifier passes them, the universe growing on
// gov, and reports whether there was one: an empty block ends the shard.
// The block takes whole frames until the next would not fit the buffer
// or the block and its admissions would take more than its 4·len(words)
// bytes; a first frame larger than that gets a buffer of its own, and
// the admissions of the frame that fills the buffer may pass it.
func (b *inBuf) read(r *ShardReader, adm *core.Admitter, gov *membudget.Governor) (bool, error) {
	b.recs.Reset(adm, gov)
	r.ver.Admit = b.recs
	blk, words, err := r.block(b.words)
	b.words = words
	if err != nil || len(blk.Words()) == 0 {
		return false, err
	}
	b.recs.Bind(blk, r.k)
	return true, nil
}

// release gives up the charge of blocks nobody will read again.
func release(gov *membudget.Governor, blocks []core.Block) {
	for i := range blocks {
		gov.Release(blocks[i].Bytes())
	}
}
