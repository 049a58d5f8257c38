package ooc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/membudget"
)

// A level is stored as an ordered list of shard files, each holding a
// contiguous range of whole prefix runs (records sharing their first k-1
// vertices).  Because sharding is run-aligned and range-contiguous, the
// concatenation of the shards in list order IS the sorted level file —
// so shards can be joined concurrently and their outputs released in
// shard order by the streaming sequencer, reproducing the exact
// sequential emission order (see DESIGN.md §0c for the ordering
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

// LevelWriter writes one level's sorted record stream, splitting it into
// run-aligned shard files of roughly target encoded bytes.  newShard
// names each file (and lets the engine register it for failure
// cleanup); onWrite observes every encoded/raw byte increment as it
// happens — the accounting hook that keeps Stats.BytesWritten truthful
// even when the level aborts mid-shard — and may return an error (the
// spill-budget abort) to stop the writer.
type LevelWriter struct {
	dir      string
	k        int
	target   int64
	enc      *recordEncoder
	newShard func() (string, error)
	onWrite  func(encBytes, rawBytes int64) error
	gov      *membudget.Governor // charged with the in-flight I/O buffer

	shards  []ShardMeta
	f       *os.File
	bw      *bufio.Writer
	bufSize int64 // governor charge of the open shard's buffer
	cur     ShardMeta
	prev    []uint32
	count   int64 // records written this level
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
		enc:      newRecordEncoder(k, compress),
		newShard: newShard,
		onWrite:  onWrite,
		gov:      gov,
		prev:     make([]uint32, k),
	}
}

// write appends one record (sorted order is the caller's invariant).
func (w *LevelWriter) Write(rec []uint32) error {
	newRun := w.count == 0 || lcp(w.prev, rec) < w.k-1
	if w.f != nil && newRun && w.cur.Bytes >= w.target {
		if err := w.closeShard(); err != nil {
			return err
		}
	}
	if w.f == nil {
		if err := w.openShard(); err != nil {
			return err
		}
	}
	if newRun {
		w.cur.Runs++
	}
	buf := w.enc.encode(rec)
	if _, err := w.bw.Write(buf); err != nil {
		return fmt.Errorf("ooc: write %s: %w", w.cur.Path, err)
	}
	w.cur.Bytes += int64(len(buf))
	w.cur.RawBytes += int64(4 * len(rec))
	w.cur.Records++
	w.count++
	copy(w.prev, rec)
	return w.onWrite(int64(len(buf)), int64(4*len(rec)))
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
	sz := bufSize(w.target)
	w.bw = bufio.NewWriterSize(f, sz)
	w.bufSize = int64(sz)
	w.gov.Charge(w.bufSize)
	w.cur = ShardMeta{Path: name}
	w.enc.reset()
	hdr := shardHeader(w.k, w.enc.compress)
	if _, err := w.bw.Write(hdr); err != nil {
		return fmt.Errorf("ooc: write shard header: %w", err)
	}
	w.cur.Bytes += int64(len(hdr))
	return w.onWrite(int64(len(hdr)), 0)
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
	w.f, w.bw = nil, nil
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
// closes it.  The files themselves are removed by the engine's
// level-failure cleanup; abort only guarantees no descriptor leaks and
// surfaces — rather than swallows — close errors, annotated with the
// abort context.
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
	w.f, w.bw = nil, nil
	return errors.Join(errs...)
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

// ShardReader streams one shard file's records, counting consumed bytes
// and enforcing the record count recorded at write time, so truncation
// and trailing garbage both surface as errors.
type ShardReader struct {
	f       *os.File
	cr      *countingReader
	br      *bufio.Reader
	dec     *recordDecoder
	meta    ShardMeta
	k       int
	records int64
	gov     *membudget.Governor
	bufSize int64
}

func OpenShard(dir string, meta ShardMeta, k, n int, compress bool, gov *membudget.Governor) (*ShardReader, error) {
	f, err := os.Open(filepath.Join(dir, meta.Path))
	if err != nil {
		return nil, fmt.Errorf("ooc: open shard: %w", err)
	}
	cr := &countingReader{r: f}
	sz := bufSize(meta.Bytes)
	r, err := newShardReader(cr, bufio.NewReaderSize(cr, sz), meta, k, n, compress)
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
// file — the read-ahead path, where a prefetch goroutine has already
// pulled the bytes off disk.  The caller owns data (and its governor
// charge); Close closes no file and releases nothing.
func OpenShardBytes(data []byte, meta ShardMeta, k, n int, compress bool) (*ShardReader, error) {
	cr := &countingReader{r: bytes.NewReader(data)}
	// A small relay buffer: decode pulls bytes one at a time, and the
	// data already lives in memory, so a big window would only copy it
	// a second time for nothing.
	return newShardReader(cr, bufio.NewReaderSize(cr, 8<<10), meta, k, n, compress)
}

// newShardReader validates the shard preamble on br and assembles the
// reader; the caller attaches the file handle and governor charge (if
// any) on success.
func newShardReader(cr *countingReader, br *bufio.Reader, meta ShardMeta, k, n int, compress bool) (*ShardReader, error) {
	hdr := make([]byte, shardHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, corrupt("%s: short header: %v", meta.Path, err)
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
	return &ShardReader{
		cr: cr, br: br,
		dec:  newRecordDecoder(k, n, compress),
		meta: meta, k: k,
	}, nil
}

// next reads one record into rec (len k), reporting io.EOF after exactly
// meta.Records records.
func (r *ShardReader) Next(rec []uint32) error {
	if r.records == r.meta.Records {
		// The write-time count is exhausted: the file must end here.
		if _, err := r.br.ReadByte(); err != io.EOF {
			return corrupt("%s: trailing data after %d records", r.meta.Path, r.records)
		}
		return io.EOF
	}
	if err := r.dec.decode(r.br, rec); err != nil {
		if err == io.EOF {
			return corrupt("%s: %d records, manifest expects %d",
				r.meta.Path, r.records, r.meta.Records)
		}
		return fmt.Errorf("%w (shard %s, record %d)", err, r.meta.Path, r.records)
	}
	r.records++
	return nil
}

// bytesRead returns the encoded bytes pulled from the file so far
// (buffered read-ahead included: it is real I/O).
func (r *ShardReader) BytesRead() int64 { return r.cr.n }

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

// bufSize right-sizes a shard's I/O buffer: shard-sized when small (the
// common case once a level splits into many shards — a fixed 1 MiB
// buffer per shard would churn hundreds of times the level's bytes in
// allocations), capped at 1 MiB for big shards.
func bufSize(hint int64) int {
	const min = 4 << 10
	const max = 1 << 20
	if hint < min {
		return min
	}
	if hint > max {
		return max
	}
	return int(hint)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
