package ooc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"unsafe"

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
// A shard is the in-core level's words themselves (core.Block, DESIGN.md
// §3.4): a 7-byte header — magic, format version, a zero byte, clique
// size — then frames:
//
//	words  uint32   the frame's word count, at least 1
//	crc    uint32   CRC-32C (Castagnoli) of the words' bytes
//	block  words × uint32, front-coded records as an in-core block holds them
//
// all little-endian.  A frame starts a run — its first record spells its
// whole prefix — so every frame, and every shard, decodes by itself: the
// unit of both parallelism and resume.  The writer copies the records it
// is handed into frames of about a run (LevelWriter.add); the reader
// reads whole frames straight into a block buffer, checks each against
// its CRC and walks it once with core.Verifier, so a truncated, corrupted
// or forged file is an error and never a level the join trusts.
const (
	shardMagic     = "OOCS"
	shardVersion   = 2
	shardHeaderLen = 7
	frameHeaderLen = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ShardMeta describes one shard file; the level manifest persists these
// for resume, and the in-memory level descriptor is just []ShardMeta.
type ShardMeta struct {
	Path     string `json:"path"` // relative to the run directory
	Records  int64  `json:"records"`
	Runs     int64  `json:"runs"`
	Bytes    int64  `json:"bytes"`     // on-disk bytes (incl. header)
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

// levelRuns sums the runs of a level's shard list: its sub-lists.
func levelRuns(shards []ShardMeta) int {
	var t int64
	for _, s := range shards {
		t += s.Runs
	}
	return int(t)
}

// LevelBytes sums a level's on-disk and fixed-width-equivalent bytes.
func LevelBytes(shards []ShardMeta) (enc, raw int64) {
	for _, s := range shards {
		enc += s.Bytes
		raw += s.RawBytes
	}
	return
}

// LevelWriter writes one level's sorted record stream, a batch of blocks
// or a prefix run at a time, splitting it into run-aligned shard files of
// roughly target bytes.  newShard names each file; onWrite observes the
// on-disk/raw byte increment of every call as it is handed to the file —
// the accounting hook that keeps Stats.BytesWritten truthful even when
// the level aborts mid-shard — and may return an error (the spill-budget
// abort) to stop the writer.
//
// The frames are the writer's own: it copies the records it is handed
// into a frame buffer and ends a frame at a run start — once the shard
// reaches its target with it, or before it would pass frameWords — so
// that a level's frames, like its words, are one function of the level,
// not of how its producer happened to group it into blocks.
type LevelWriter struct {
	dir      string
	k        int
	target   int64
	newShard func() (string, error)
	onWrite  func(encBytes, rawBytes int64) error
	gov      *membudget.Governor // charged with the in-flight I/O buffer
	bufCap   int64               // most the I/O buffer may take (bufShare; 0 = uncapped)

	shards  []ShardMeta
	f       *os.File
	bw      *bufio.Writer
	bufSize int64 // governor charge of the open shard's buffer
	cur     ShardMeta
	pendEnc int64 // bytes handed to files, not yet reported to onWrite
	pendRaw int64 // their fixed-width equivalent
	frame   [frameHeaderLen]byte

	// The frame being assembled: whole records, the first a run start.
	fb        []uint32
	fbRuns    int64 // its sub-lists
	fbRecords int64 // its records

	// WriteRun's state: the run it holds open, the prefix it front-coded
	// last, and the words since the run start it last made, where the
	// frame may end.
	prefix, tails []uint32
	last          []uint32
	since         int
	rec           []uint32 // the record being front-coded
}

// frameWords is what a frame holds before it ends at the next run start:
// about a run, so that decode-ahead fills a block buffer of any size with
// whole frames, up to its room.
const frameWords = core.RunWords

// NewLevelWriter returns a writer of a level of k-cliques into dir.
// compress is ignored: a level has one format.
func NewLevelWriter(dir string, k int, compress bool, target int64,
	gov *membudget.Governor,
	newShard func() (string, error), onWrite func(enc, raw int64) error) *LevelWriter {
	return &LevelWriter{
		dir:      dir,
		k:        k,
		target:   max(target, 1),
		newShard: newShard,
		onWrite:  onWrite,
		gov:      gov,
	}
}

// WriteRun appends the records (prefix, t) for t in tails — a whole
// prefix run, or the next part of the run written last.  Sorted order
// across calls, and strictly increasing tails above the prefix within
// one, are the caller's invariant: the reader, not the writer, checks
// them.  A run reaches the file, and onWrite, with the frame it ends up
// in.
func (w *LevelWriter) WriteRun(prefix, tails []uint32) error {
	if len(tails) == 0 {
		return nil
	}
	if len(w.tails) > 0 && slices.Equal(w.prefix, prefix) {
		w.tails = append(w.tails, tails...)
		return nil
	}
	err := w.pack()
	w.prefix = append(w.prefix[:0], prefix...)
	w.tails = append(w.tails[:0], tails...)
	return errors.Join(err, w.report())
}

// Write appends one record: a one-tail WriteRun, which continues the
// current run when the prefix repeats.
func (w *LevelWriter) Write(rec []uint32) error {
	return w.WriteRun(rec[:w.k-1], rec[w.k-1:])
}

// pack front-codes the open run behind the record before it and hands
// it on to the frame.  It starts a run of its own — a record that
// decodes by itself — once the words since the last such start, with the
// record at its largest, would pass frameWords.
func (w *LevelWriter) pack() error {
	if len(w.tails) == 0 {
		return nil
	}
	lcp := 0
	for w.since > 0 && lcp < len(w.prefix) && w.last[lcp] == w.prefix[lcp] {
		lcp++
	}
	if w.since+3+len(w.prefix)-lcp+len(w.tails) > frameWords {
		lcp, w.since = 0, 0
	}
	w.rec = core.AppendRecord(w.rec[:0], w.prefix, lcp, w.tails)
	w.since += len(w.rec)
	w.last = append(w.last[:0], w.prefix...)
	w.tails = w.tails[:0]
	return w.add(w.rec)
}

// flush writes whatever the writer holds — WriteRun's open run, the
// frame being assembled — and reports it: the end of a stretch of the
// level, after which a record decodes by itself.
func (w *LevelWriter) flush() error {
	err := w.pack()
	w.since = 0
	if err == nil && len(w.fb) > 0 {
		err = w.cut()
	}
	return errors.Join(err, w.report())
}

// writeBlocks appends blocks — sealed blocks of the level, in order — to
// the frames, and reports the bytes that reached a file to onWrite once:
// the unit the join writes its output in.
func (w *LevelWriter) writeBlocks(blocks []core.Block) error {
	for i := range blocks {
		if err := w.add(blocks[i].Words()); err != nil {
			return errors.Join(err, w.report())
		}
	}
	return w.report()
}

// add appends words — whole records, the first a run start — to the frame
// being assembled, and writes a frame wherever one ends: at a run start,
// once it holds frameWords or the shard reaches its target with it.
func (w *LevelWriter) add(words []uint32) error {
	from := 0 // words[from:p] belong to the frame but are not copied yet
	for p := 0; p < len(words); {
		n, lcp, tails := core.RecordAt(words, p, w.k)
		if size := len(w.fb) + p - from; lcp == 0 && size > 0 && (size >= frameWords || w.reaches(size)) {
			w.fb, from = append(w.fb, words[from:p]...), p
			if err := w.cut(); err != nil {
				return err
			}
		}
		w.fbRuns++
		w.fbRecords += int64(tails)
		p += n
	}
	w.fb = append(w.fb, words[from:]...)
	return nil
}

// reaches reports whether the shard the next frame lands in reaches the
// target with a frame of size words.
func (w *LevelWriter) reaches(size int) bool {
	at := int64(shardHeaderLen)
	if w.f != nil && w.cur.Bytes < w.target {
		at = w.cur.Bytes
	}
	return at+frameHeaderLen+4*int64(size) >= w.target
}

// cut writes the frame being assembled to the open shard, first closing
// a shard that has reached its target and opening one where none is
// open, and counts its bytes as pending for onWrite.
func (w *LevelWriter) cut() error {
	if w.f != nil && w.cur.Bytes >= w.target {
		if err := w.closeShard(); err != nil {
			return err
		}
	}
	if w.f == nil {
		if err := w.openShard(); err != nil {
			return err
		}
	}
	toLE(w.fb)
	data := wordBytes(w.fb)
	binary.LittleEndian.PutUint32(w.frame[:4], uint32(len(w.fb)))
	binary.LittleEndian.PutUint32(w.frame[4:], crc32.Checksum(data, castagnoli))
	if _, err := w.bw.Write(w.frame[:]); err != nil {
		return fmt.Errorf("ooc: write %s: %w", w.cur.Path, err)
	}
	if _, err := w.bw.Write(data); err != nil {
		return fmt.Errorf("ooc: write %s: %w", w.cur.Path, err)
	}
	n, raw := int64(frameHeaderLen+len(data)), 4*int64(w.k)*w.fbRecords
	w.cur.Bytes += n
	w.cur.RawBytes += raw
	w.cur.Records += w.fbRecords
	w.cur.Runs += w.fbRuns
	w.pendEnc += n
	w.pendRaw += raw
	w.fb, w.fbRuns, w.fbRecords = w.fb[:0], 0, 0
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
	if _, err := w.bw.Write(shardHeader(w.k)); err != nil {
		return fmt.Errorf("ooc: write shard header: %w", err)
	}
	w.cur.Bytes += shardHeaderLen
	w.pendEnc += shardHeaderLen
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

// Finish writes what WriteRun still holds, closes the current shard and
// returns the level's shard list.  On an error the open shard is
// aborted.
func (w *LevelWriter) Finish() ([]ShardMeta, error) {
	if err := w.flush(); err != nil {
		return nil, errors.Join(err, w.Abort())
	}
	if err := w.closeShard(); err != nil {
		return nil, err
	}
	return w.shards, nil
}

// Abort flushes what the current shard buffered (so the on-disk state
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
// the next input shard's output — which starts files and frames of its
// own, keeping its buffers.
func (w *LevelWriter) restart() {
	w.shards, w.cur = nil, ShardMeta{}
}

func shardHeader(k int) []byte {
	return append([]byte(shardMagic), shardVersion, 0, byte(k))
}

// ShardReader reads one shard file back a frame at a time, each checked
// by its CRC and by core.Verifier, and enforces the record count recorded
// at write time, so truncation and trailing garbage both surface as
// errors.
type ShardReader struct {
	src     io.Reader     // the shard's bytes
	br      *bufio.Reader // src, for a shard read from a file
	f       *os.File
	size    int64 // an in-memory shard's bytes
	meta    ShardMeta
	k       int
	pos     int64 // bytes consumed from src
	left    int64 // records the shard still owes
	ver     core.Verifier
	hdr     [frameHeaderLen]byte // of the next frame
	held    bool                 // hdr is read, its frame is not
	gov     *membudget.Governor
	bufSize int64

	// Next's cursor: a buffer, the block in it, the run and tail it is at.
	buf []uint32
	it  core.Iter
	run *core.SubList
	cur int
}

// OpenShard opens a shard file for reading through a window of the
// shard's size, at most 1 MiB, charged to gov until Close.  compress is
// ignored: a level has one format.
func OpenShard(dir string, meta ShardMeta, k, n int, compress bool, gov *membudget.Governor) (*ShardReader, error) {
	return openShard(dir, meta, k, n, gov, bufio.NewReaderSize(nil, bufSize(meta.Bytes, 0)))
}

// openShard is OpenShard reading through the window br, whatever its
// size: decode-ahead reads every shard of a run through one.
func openShard(dir string, meta ShardMeta, k, n int, gov *membudget.Governor, br *bufio.Reader) (*ShardReader, error) {
	f, err := os.Open(filepath.Join(dir, meta.Path))
	if err != nil {
		return nil, fmt.Errorf("ooc: open shard: %w", err)
	}
	br.Reset(f)
	r := &ShardReader{f: f, br: br}
	if err := r.start(br, meta, k, n); err != nil {
		f.Close()
		return nil, err
	}
	gov.Charge(int64(br.Size()))
	r.gov, r.bufSize = gov, int64(br.Size())
	return r, nil
}

// OpenShardBytes reads a shard from an in-memory copy of its file, which
// the caller owns (with any governor charge for it) and keeps unchanged
// until Close; Close closes no file and releases nothing.  compress is
// ignored: a level has one format.
func OpenShardBytes(data []byte, meta ShardMeta, k, n int, compress bool) (*ShardReader, error) {
	r := &ShardReader{size: int64(len(data))}
	if err := r.start(bytes.NewReader(data), meta, k, n); err != nil {
		return nil, err
	}
	return r, nil
}

// start reads and checks the shard header from src.
func (r *ShardReader) start(src io.Reader, meta ShardMeta, k, n int) error {
	if k < 2 || k > 0xff {
		return fmt.Errorf("ooc: shard %s: clique size %d (want 2..255)", meta.Path, k)
	}
	r.src, r.meta, r.k, r.left = src, meta, k, meta.Records
	hdr := r.hdr[:shardHeaderLen]
	got, err := io.ReadFull(src, hdr)
	r.pos = int64(got)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return corrupt("%s: short header (%d bytes)", meta.Path, got)
	} else if err != nil {
		return fmt.Errorf("ooc: read shard %s: %w", meta.Path, err)
	}
	switch {
	case string(hdr[:4]) != shardMagic:
		return corrupt("%s: bad magic %q", meta.Path, hdr[:4])
	case hdr[4] != shardVersion:
		return corrupt("%s: unsupported format version %d (this build reads %d)", meta.Path, hdr[4], shardVersion)
	case hdr[5] != 0:
		return corrupt("%s: reserved header byte %#x", meta.Path, hdr[5])
	case int(hdr[6]) != k:
		return corrupt("%s: clique size %d, level expects %d", meta.Path, hdr[6], k)
	}
	r.ver.Reset(k, n)
	return nil
}

// block reads the shard's next frames into buf — as many whole frames as
// it has room for beside their records' admissions, where the verifier
// admits them (Verifier.Admit), and at least one, in a larger buffer
// when buf is too small for it — checks each by its CRC and
// core.Verifier, and returns them as one block, with the buffer it lives
// in.  An empty block is the end of the shard, reached after exactly
// meta.Records records and at the end of the file.
//
//repro:hotpath
func (r *ShardReader) block(buf []uint32) (blk core.Block, out []uint32, err error) {
	n, owed := 0, r.left // words read into buf; records owed before them
	for {
		if !r.held {
			got, err := io.ReadFull(r.src, r.hdr[:frameHeaderLen])
			r.pos += int64(got)
			switch {
			case got == 0 && err == io.EOF:
				if r.left != 0 {
					return blk, buf, r.short()
				}
				return blk, buf, nil
			case r.left == 0:
				return blk, buf, r.bad("trailing data")
			case err != nil:
				return blk, buf, r.broken(err)
			}
			r.held = true
		}
		// The manifest bounds what a frame may claim: a forged length
		// allocates nothing past the shard's size.
		words := int(binary.LittleEndian.Uint32(r.hdr[:4]))
		if words == 0 {
			return blk, buf, r.bad("empty frame")
		}
		if 4*int64(words) > r.meta.Bytes-r.pos {
			return blk, buf, r.bad("frame length past the shard's end")
		}
		if n > 0 && (n+words > cap(buf) || r.ver.Admit != nil && 4*int64(n+words)+r.ver.Admit.SideBytes() > 4*int64(cap(buf))) {
			return blk, buf, nil // the frame starts the next block
		}
		if cap(buf) < words {
			buf = growBuf(words)
		}
		w := buf[n : n+words]
		data := wordBytes(w)
		got, err := io.ReadFull(r.src, data)
		r.pos += int64(got)
		if err != nil {
			return blk, buf, r.broken(err)
		}
		if crc32.Checksum(data, castagnoli) != binary.LittleEndian.Uint32(r.hdr[4:]) {
			return blk, buf, r.bad("checksum mismatch")
		}
		toLE(w)
		if blk, err = r.ver.Block(buf[:n+words], n); err != nil {
			return blk, buf, r.walk(err)
		}
		if blk.Cliques() > owed {
			return blk, buf, r.bad("more records than the manifest says")
		}
		r.left, r.held = owed-blk.Cliques(), false
		n += words
	}
}

// growBuf makes a block buffer for a frame larger than the one at hand;
// out of line, so block stays allocation-free.
func growBuf(words int) []uint32 { return make([]uint32, words) }

// The reader's errors, out of line so that block boxes nothing.

func (r *ShardReader) bad(what string) error {
	return corrupt("%s: %s (at byte %d)", r.meta.Path, what, r.pos)
}

func (r *ShardReader) short() error {
	return corrupt("%s: %d records, manifest expects %d", r.meta.Path, r.meta.Records-r.left, r.meta.Records)
}

func (r *ShardReader) broken(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return r.bad("truncated frame")
	}
	return fmt.Errorf("ooc: read shard %s: %w", r.meta.Path, err)
}

func (r *ShardReader) walk(err error) error {
	return fmt.Errorf("ooc: corrupt level file: %s (at byte %d): %w", r.meta.Path, r.pos, err)
}

// Next reads the shard's next record into rec (len k).  It reports
// io.EOF after exactly meta.Records records.
func (r *ShardReader) Next(rec []uint32) error {
	for r.run == nil || r.cur == len(r.run.Tails) {
		r.cur = 0
		if r.run = r.it.Next(); r.run != nil {
			continue
		}
		if r.buf == nil {
			r.buf = make([]uint32, core.MaxBlockBytes/4)
		}
		blk, buf, err := r.block(r.buf)
		if err != nil {
			return err
		}
		if len(blk.Words()) == 0 {
			return io.EOF
		}
		r.buf = buf
		r.it.Reset(r.k, &blk)
	}
	copy(rec, r.run.Prefix)
	rec[r.k-1] = r.run.Tails[r.cur]
	r.cur++
	return nil
}

// BytesRead returns the bytes pulled from the file so far (what the
// window holds beyond those read included: it is real I/O); for an
// in-memory shard, all of it.
func (r *ShardReader) BytesRead() int64 {
	if r.f == nil {
		return r.size
	}
	return r.pos + int64(r.br.Buffered())
}

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

func corrupt(format string, args ...any) error {
	return fmt.Errorf("ooc: corrupt level file: "+format, args...)
}

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes is the memory of words as bytes.
func wordBytes(words []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 4*len(words))
}

// toLE turns native words into the format's little-endian ones in place,
// and back: nothing to do on a little-endian machine.
//
//repro:hotpath
func toLE(words []uint32) {
	if littleEndian {
		return
	}
	for i, v := range words {
		words[i] = bits.ReverseBytes32(v)
	}
}

// minBuf is the smallest shard I/O buffer.
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
