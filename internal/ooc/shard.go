package ooc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/membudget"
)

// A level is stored as an ordered list of shard files, each holding a
// contiguous range of whole prefix runs (records sharing their first k-1
// vertices).  Because sharding is run-aligned and range-contiguous, the
// concatenation of the shards in list order IS the sorted level file —
// so shards can be joined concurrently and their outputs released in
// shard order by the streaming sequencer, reproducing the exact
// sequential emission order (see DESIGN.md §5.3 for the ordering
// argument).
//
// Each shard starts a fresh delta-encoder state, so shards decode
// independently — the unit of both parallelism and resume.

// shardHeaderLen is the fixed shard-file preamble: magic, format
// version, flags (bit0 = delta-varint), clique size.
const (
	shardMagic     = "OOCS"
	shardVersion   = 1
	shardHeaderLen = 7
)

// ShardMeta describes one shard file; the level manifest persists these
// for resume, and the in-memory level descriptor is just []ShardMeta.
type ShardMeta struct {
	Path     string `json:"path"` // relative to the run directory
	Records  int64  `json:"records"`
	Runs     int64  `json:"runs"`
	Bytes    int64  `json:"bytes"`     // encoded on-disk bytes (incl. header)
	RawBytes int64  `json:"raw_bytes"` // fixed-width-equivalent payload bytes (4k per record)
}

// LevelRecords sums the record counts of a level's shard list.
func LevelRecords(shards []ShardMeta) int64 {
	var t int64
	for _, s := range shards {
		t += s.Records
	}
	return t
}

// LevelBytes sums a level's encoded and fixed-width-equivalent bytes.
func LevelBytes(shards []ShardMeta) (enc, raw int64) {
	for _, s := range shards {
		enc += s.Bytes
		raw += s.RawBytes
	}
	return
}

// LevelWriter writes one level's sorted record stream, a prefix run or a
// batch of blocks at a time, splitting it into run-aligned shard files of
// roughly target encoded bytes.  newShard names each file; onWrite
// observes the encoded/raw byte increment of every call as it is handed
// to the file — the accounting hook that keeps Stats.BytesWritten
// truthful even when the level aborts mid-shard — and may return an error
// (the spill-budget abort) to stop the writer.
type LevelWriter struct {
	dir      string
	k        int
	target   int64
	enc      *runEncoder
	newShard func() (string, error)
	onWrite  func(encBytes, rawBytes int64) error
	gov      *membudget.Governor // charged with the in-flight I/O buffer
	bufCap   int64               // most the I/O buffer may take (bufShare; 0 = uncapped)

	shards  []ShardMeta
	f       *os.File
	bw      *bufio.Writer
	bufSize int64 // governor charge of the open shard's buffer
	cur     ShardMeta
	pendEnc int64     // encoded bytes handed to files, not yet reported to onWrite
	pendRaw int64     // their fixed-width equivalent
	it      core.Iter // writeBlocks' record decoder
}

func NewLevelWriter(dir string, k int, compress bool, target int64,
	gov *membudget.Governor,
	newShard func() (string, error), onWrite func(enc, raw int64) error) *LevelWriter {
	if target < 1 {
		target = 1
	}
	return &LevelWriter{
		dir:      dir,
		k:        k,
		target:   target,
		enc:      newRunEncoder(k, compress),
		newShard: newShard,
		onWrite:  onWrite,
		gov:      gov,
	}
}

// WriteRun appends the records (prefix, t) for t in tails — a whole
// prefix run, or the next part of the run written last.  Sorted order
// across calls, and strictly increasing tails above the prefix within
// one, are the caller's invariant.  Everything that costs O(k) — the
// comparison with the previous run, the shard-split decision — happens
// once per call, and the run reaches the file and onWrite as one write.
func (w *LevelWriter) WriteRun(prefix, tails []uint32) error {
	return errors.Join(w.put(prefix, tails, 0), w.report())
}

// writeBlocks appends the records of blocks — sealed blocks of the level,
// in order, each record one run — and reports their bytes to onWrite
// once: the write-behind stage's unit.
func (w *LevelWriter) writeBlocks(blocks []core.Block) error {
	for i := range blocks {
		it := &w.it
		it.Reset(w.k, &blocks[i])
		for s := it.Next(); s != nil; s = it.Next() {
			if err := w.put(s.Prefix, s.Tails, s.LCP); err != nil {
				return errors.Join(err, w.report())
			}
		}
		if err := it.Err(); err != nil {
			return errors.Join(err, w.report())
		}
	}
	return w.report()
}

// put encodes one run into the open shard, opening (or first closing and
// opening) one where the run starts a new shard, and counts its bytes as
// pending for onWrite.  known leading vertices of prefix are those of the
// run put last (a block record's lcp: the record before it in the block
// is that run).
func (w *LevelWriter) put(prefix, tails []uint32, known int) error {
	if len(tails) == 0 {
		return nil
	}
	shared, same := w.enc.shared(prefix, known)
	if !same {
		if w.f != nil && w.cur.Bytes >= w.target {
			if err := w.closeShard(); err != nil {
				return err
			}
		}
		if w.f == nil {
			if err := w.openShard(); err != nil {
				return err
			}
			shared = 0 // a shard decodes by itself
		}
		w.cur.Runs++
	}
	buf := w.enc.encode(prefix, tails, shared)
	if _, err := w.bw.Write(buf); err != nil {
		return fmt.Errorf("ooc: write %s: %w", w.cur.Path, err)
	}
	raw := int64(4 * w.k * len(tails))
	w.cur.Bytes += int64(len(buf))
	w.cur.RawBytes += raw
	w.cur.Records += int64(len(tails))
	w.pendEnc += int64(len(buf))
	w.pendRaw += raw
	return nil
}

// report hands the pending byte counts to onWrite.
func (w *LevelWriter) report() error {
	if w.pendEnc == 0 {
		return nil
	}
	enc, raw := w.pendEnc, w.pendRaw
	w.pendEnc, w.pendRaw = 0, 0
	return w.onWrite(enc, raw)
}

// Write appends one record: a one-tail WriteRun, which continues the
// current run when the prefix repeats.
func (w *LevelWriter) Write(rec []uint32) error {
	return w.WriteRun(rec[:w.k-1], rec[w.k-1:])
}

func (w *LevelWriter) openShard() error {
	name, err := w.newShard()
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return fmt.Errorf("ooc: create shard: %w", err)
	}
	w.f = f
	sz := bufSize(w.target, w.bufCap)
	if w.bw != nil && w.bw.Size() == sz {
		w.bw.Reset(f) // the buffer of the shard before
	} else {
		w.bw = bufio.NewWriterSize(f, sz)
	}
	w.bufSize = int64(sz)
	w.gov.Charge(w.bufSize)
	w.cur = ShardMeta{Path: name}
	hdr := shardHeader(w.k, w.enc.compress)
	if _, err := w.bw.Write(hdr); err != nil {
		return fmt.Errorf("ooc: write shard header: %w", err)
	}
	w.cur.Bytes += int64(len(hdr))
	w.pendEnc += int64(len(hdr))
	return nil
}

func (w *LevelWriter) closeShard() error {
	if w.f == nil {
		return nil
	}
	err := w.bw.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.gov.Release(w.bufSize)
	w.bufSize = 0
	if err != nil {
		return fmt.Errorf("ooc: close shard %s: %w", w.cur.Path, err)
	}
	w.shards = append(w.shards, w.cur)
	w.f = nil
	return nil
}

// finish closes the current shard and returns the level's shard list.
func (w *LevelWriter) Finish() ([]ShardMeta, error) {
	if err := w.closeShard(); err != nil {
		return nil, err
	}
	return w.shards, nil
}

// abort flushes what the current shard buffered (so the on-disk state
// matches the byte accounting already reported through onWrite) and
// closes it.  The files themselves are removed by the level driver's
// sweep (or with the run directory); abort only guarantees no descriptor
// leaks and surfaces — rather than swallows — close errors, annotated
// with the abort context.
func (w *LevelWriter) Abort() error {
	if w.f == nil {
		return nil
	}
	var errs []error
	if err := w.bw.Flush(); err != nil {
		errs = append(errs, fmt.Errorf("ooc: flushing aborted shard %s: %w", w.cur.Path, err))
	}
	if err := w.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("ooc: closing aborted shard %s: %w", w.cur.Path, err))
	}
	w.gov.Release(w.bufSize)
	w.bufSize = 0
	w.f = nil
	return errors.Join(errs...)
}

// restart readies a finished writer for another stretch of the level —
// the next input shard's output — which starts files of its own, keeping
// its buffers.
func (w *LevelWriter) restart() {
	w.shards, w.cur = nil, ShardMeta{}
	w.enc.started = false
}

func shardHeader(k int, compress bool) []byte {
	hdr := make([]byte, 0, shardHeaderLen)
	hdr = append(hdr, shardMagic...)
	hdr = append(hdr, shardVersion)
	flags := byte(0)
	if compress {
		flags |= 1
	}
	return append(hdr, flags, byte(k))
}

// ShardReader streams one shard file's prefix runs, counting consumed
// bytes and enforcing the record count recorded at write time, so
// truncation and trailing garbage both surface as errors.
type ShardReader struct {
	f       *os.File
	dec     *runDecoder
	meta    ShardMeta
	cur     int // Next's cursor into the decoded run
	gov     *membudget.Governor
	bufSize int64
}

// OpenShard opens a shard file for decoding through a window of the
// shard's size, at most 1 MiB, charged to gov until Close.
func OpenShard(dir string, meta ShardMeta, k, n int, compress bool, gov *membudget.Governor) (*ShardReader, error) {
	return openShard(dir, meta, k, n, compress, gov, 0, nil)
}

// openShard is OpenShard with the window capped at bufCap bytes (0 =
// uncapped), in win when that is large enough: decode-ahead hands each
// shard's window on to the next.
func openShard(dir string, meta ShardMeta, k, n int, compress bool, gov *membudget.Governor,
	bufCap int64, win []byte) (*ShardReader, error) {
	f, err := os.Open(filepath.Join(dir, meta.Path))
	if err != nil {
		return nil, fmt.Errorf("ooc: open shard: %w", err)
	}
	sz := bufSize(meta.Bytes, bufCap)
	if cap(win) < sz {
		win = make([]byte, 0, sz)
	}
	r, err := newShardReader(win[:0:sz], f, meta, k, n, compress)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.f = f
	gov.Charge(int64(sz))
	r.gov, r.bufSize = gov, int64(sz)
	return r, nil
}

// OpenShardBytes reads a shard from an in-memory copy of its encoded
// file.  The data is decoded in place: the caller owns it (and any
// governor charge for it) and keeps it unchanged until Close, which
// closes no file and releases nothing.
func OpenShardBytes(data []byte, meta ShardMeta, k, n int, compress bool) (*ShardReader, error) {
	return newShardReader(data, nil, meta, k, n, compress)
}

// newShardReader validates the shard preamble at the head of the window
// and assembles the reader; the caller attaches the file handle and
// governor charge (if any) on success.
func newShardReader(win []byte, src io.Reader, meta ShardMeta, k, n int, compress bool) (*ShardReader, error) {
	if k < 2 {
		return nil, fmt.Errorf("ooc: shard %s: clique size %d (want >= 2)", meta.Path, k)
	}
	dec := newRunDecoder(k, n, compress, meta.Records, win, src)
	if src != nil {
		if err := dec.refill(); err != nil {
			return nil, err
		}
	} else {
		dec.read = int64(len(win))
	}
	hdr := dec.win
	if len(hdr) < shardHeaderLen {
		return nil, corrupt("%s: short header (%d bytes)", meta.Path, len(hdr))
	}
	if string(hdr[:4]) != shardMagic {
		return nil, corrupt("%s: bad magic %q", meta.Path, hdr[:4])
	}
	if hdr[4] != shardVersion {
		return nil, corrupt("%s: unsupported format version %d", meta.Path, hdr[4])
	}
	if gotCompress := hdr[5]&1 != 0; gotCompress != compress {
		return nil, corrupt("%s: encoding mismatch (compressed=%v, run expects %v)",
			meta.Path, gotCompress, compress)
	}
	if int(hdr[6]) != k {
		return nil, corrupt("%s: clique size %d, level expects %d", meta.Path, hdr[6], k)
	}
	dec.pos = shardHeaderLen
	return &ShardReader{dec: dec, meta: meta}, nil
}

// NextRun decodes the shard's next prefix run: the k-1 shared vertices
// and the tails, one per record, both valid until the next call.  It
// reports io.EOF after exactly meta.Records records.
func (r *ShardReader) NextRun() (prefix, tails []uint32, err error) {
	d := r.dec
	r.cur = 0
	ok, err := d.next()
	if err != nil {
		return nil, nil, fmt.Errorf("%w (shard %s, record %d)", err, r.meta.Path, r.meta.Records-d.limit)
	}
	if !ok {
		if d.limit > 0 {
			return nil, nil, corrupt("%s: %d records, manifest expects %d",
				r.meta.Path, r.meta.Records-d.limit, r.meta.Records)
		}
		// The write-time count is exhausted: the file must end here.
		if d.pos < len(d.win) {
			return nil, nil, corrupt("%s: trailing data after %d records", r.meta.Path, r.meta.Records)
		}
		return nil, nil, io.EOF
	}
	return d.rec[:d.k-1], d.tails, nil
}

// blockReader packs a shard's prefix runs into blocks of the in-core
// level's record shape (core.Packer): the decode-ahead stage's reader.
type blockReader struct {
	r       *ShardReader
	p       core.Packer
	pending bool // the run NextRun returned last did not fit the block before
}

// next packs the shard's next runs into a block in buf, as many as fit
// its capacity, and returns it with the buffer it lives in (a larger one
// when a single run needed it).  An empty block is the end of the shard.
func (b *blockReader) next(buf []uint32) (core.Block, []uint32, error) {
	r, d := b.r, b.r.dec
	b.p.Reset(d.k, buf)
	if b.pending {
		b.p.Add(d.rec[:d.k-1], 0, d.tails)
		b.pending = false
	}
	for {
		prefix, tails, err := r.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			return core.Block{}, b.p.Buf(), err
		}
		if !b.p.Add(prefix, d.shared, tails) {
			b.pending = true
			break
		}
	}
	return b.p.Block(), b.p.Buf(), nil
}

// Next reads one record into rec (len k): a cursor over NextRun's runs.
func (r *ShardReader) Next(rec []uint32) error {
	d := r.dec
	if r.cur == len(d.tails) {
		if _, _, err := r.NextRun(); err != nil {
			return err
		}
	}
	k1 := d.k - 1
	copy(rec, d.rec[:k1])
	rec[k1] = d.tails[r.cur]
	r.cur++
	return nil
}

// BytesRead returns the encoded bytes pulled from the file so far
// (the undecoded rest of the window included: it is real I/O); for an
// in-memory shard, all of it.
func (r *ShardReader) BytesRead() int64 { return r.dec.read }

func (r *ShardReader) Close() error {
	r.gov.Release(r.bufSize)
	r.bufSize = 0
	if r.f == nil {
		return nil // in-memory source: nothing to close
	}
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("ooc: close shard %s: %w", r.meta.Path, err)
	}
	return nil
}

// minBuf is the smallest shard I/O buffer: it holds a whole record of
// any level (k < 256, at most 5 bytes a field).
const minBuf = 4 << 10

// bufSize right-sizes a shard's I/O buffer: shard-sized when small, so a
// small shard does not churn a fixed buffer's worth of allocation,
// capped at 1 MiB for big shards and, under a memory budget, at the share
// of its headroom bufShare worked out.
func bufSize(hint, bufCap int64) int {
	const max = 1 << 20
	if hint > max {
		hint = max
	}
	if bufCap > 0 && hint > bufCap {
		hint = bufCap
	}
	if hint < minBuf {
		hint = minBuf
	}
	return int(hint)
}

// bufShare is the most one of `buffers` buffers open at once may take:
// an equal share of the headroom gov's budget has left right now — a
// spilled run is on disk because memory ran out, so its buffers take what
// is free, not what the level's size suggests — and at least 1 byte, so
// that a budget always caps.  0 (uncapped) without a budget.  It is read
// where nothing of the step is in flight yet — before a level's first
// join, before a fed level's first write — so the buffers it caps fit the
// budget together whenever their minimum does: an I/O buffer takes no
// less than minBuf (bufSize), the block queues whatever those floors
// leave of their shares (shapeFor).
func bufShare(gov *membudget.Governor, buffers int) int64 {
	if gov.Budget() <= 0 {
		return 0
	}
	return max((gov.Budget()-gov.Used())/int64(buffers), 1)
}
