package ooc

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The level-file run codec.  A level file holds canonical k-clique
// records in sorted (lexicographic) order; the encoding is chosen per
// run of the engine:
//
//   - raw: fixed-width 4-byte little-endian vertices, k per record — the
//     original format, kept as the measurement baseline.
//   - delta-varint: each record is encoded against its predecessor as
//     uvarint(lcp) — the length of the shared prefix — followed by one
//     uvarint per remaining position holding the gap to the previous
//     vertex of the same record (records are strictly increasing, so
//     every gap is >= 1; the first position stores the vertex itself).
//     Sorted level files share long prefixes between neighbors and hold
//     small in-record gaps, which is exactly what makes the paper's
//     "intensive disk I/O" compressible: typical records cost a few
//     bytes instead of 4k.
//
// The bytes are defined record by record, but the code never handles a
// lone record: its unit is the prefix run — the records sharing their
// first k-1 vertices, i.e. the paper's sub-list (prefix, tails).  Within
// a run everything but the tail is constant, so records 2..n of a run
// cost O(1) each to encode and to decode (in delta-varint they are the
// constant uvarint(k-1) followed by one gap); the O(k-lcp) work —
// prefix comparison, prefix bytes, prefix validation — happens once,
// where the run changes.
//
// Decoding validates as it goes — strictly increasing vertices inside a
// record, strict lexicographic progress between records, the vertex
// universe bound — so a truncated or corrupted level file surfaces an
// error instead of feeding garbage into the join.

// maxVarint32 is the longest uvarint of a value below 2^32; no field of
// a well-formed record (a vertex, a gap, an lcp) takes more.
const maxVarint32 = 5

// runEncoder turns prefix runs into level-file bytes.  Its only state is
// the prefix of the run encoded last.
type runEncoder struct {
	k        int
	compress bool
	prefix   []uint32 // prefix of the run encoded last (len k-1)
	started  bool     // a run has been encoded
	tag      []byte   // uvarint(k-1): the lcp field of a record that continues its run
	buf      []byte   // one call's encoding, reused
}

func newRunEncoder(k int, compress bool) *runEncoder {
	return &runEncoder{
		k:        k,
		compress: compress,
		prefix:   make([]uint32, k-1),
		tag:      binary.AppendUvarint(nil, uint64(k-1)),
	}
}

// shared returns how many leading vertices prefix has in common with the
// run encoded last, and whether the two are the same run.  The caller
// vouches for the first known of them: a level block's stored lcp, or 0.
func (e *runEncoder) shared(prefix []uint32, known int) (n int, same bool) {
	if !e.started {
		return 0, false
	}
	n = known + lcp(e.prefix[known:], prefix[known:])
	return n, n == e.k-1
}

// encode returns the bytes of the records (prefix, t) for t in tails
// (at least one).  shared is what the first of them may reuse of the
// record before it: the value shared returned, or 0 at the start of a
// shard file, so that every shard decodes by itself; k-1 continues the
// run encoded last.  The returned slice is valid until the next call.
func (e *runEncoder) encode(prefix, tails []uint32, shared int) []byte {
	e.buf = e.appendRun(e.buf[:0], prefix, tails, shared)
	copy(e.prefix[shared:], prefix[shared:])
	e.started = true
	return e.buf
}

//repro:hotpath
func (e *runEncoder) appendRun(buf []byte, prefix, tails []uint32, shared int) []byte {
	if !e.compress {
		// The prefix bytes are laid down once and copied per record.
		head := len(buf)
		for _, v := range prefix {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
		body := len(buf)
		for i, t := range tails {
			if i > 0 {
				buf = append(buf, buf[head:body]...)
			}
			buf = binary.LittleEndian.AppendUint32(buf, t)
		}
		return buf
	}
	k1 := e.k - 1
	last := uint32(0) // the vertex a tail's gap is measured from
	if k1 > 0 {
		last = prefix[k1-1]
	}
	if shared < k1 {
		// The run's first record spells out what it does not share.
		buf = binary.AppendUvarint(buf, uint64(shared))
		for i := shared; i < k1; i++ {
			if i == 0 {
				buf = binary.AppendUvarint(buf, uint64(prefix[0]))
			} else {
				buf = binary.AppendUvarint(buf, uint64(prefix[i]-prefix[i-1]))
			}
		}
		buf = binary.AppendUvarint(buf, uint64(tails[0]-last))
		tails = tails[1:]
	}
	for _, t := range tails {
		buf = append(buf, e.tag...)
		buf = binary.AppendUvarint(buf, uint64(t-last))
	}
	return buf
}

// runDecoder reads prefix runs back out of a contiguous window of
// level-file bytes, validating as it goes.  The window is the whole
// shard when that is already in memory (src nil); over a file it is a
// buffer refilled from src whenever less than one record is left in it.
type runDecoder struct {
	k        int
	n        int // vertex universe; decoded vertices must lie in [0, n)
	compress bool
	need     int // the most one well-formed record occupies

	win  []byte
	pos  int
	src  io.Reader
	done bool  // src is exhausted
	read int64 // bytes pulled from src

	rec     []uint32 // the record decoded last: the run's prefix, then its latest tail
	tails   []uint32 // the current run's tails
	shared  int      // leading vertices the current run's prefix has in common with the run before it
	hasPrev bool
	limit   int64 // records still expected; a run is cut there
}

// newRunDecoder decodes at most records records from win, which src
// (when non-nil) refills: win must then be a buffer of at least one
// record's size, holding whatever has been read so far.
func newRunDecoder(k, n int, compress bool, records int64, win []byte, src io.Reader) *runDecoder {
	d := &runDecoder{
		k: k, n: n, compress: compress, need: 4 * k,
		win: win, src: src,
		rec: make([]uint32, k), limit: records,
	}
	if compress {
		d.need = maxVarint32 * (k + 1)
	}
	return d
}

// more makes sure a whole record is in the window, unless the source
// ends first, and reports whether any byte is left.
func (d *runDecoder) more() (bool, error) {
	if len(d.win)-d.pos < d.need && d.src != nil && !d.done {
		if err := d.refill(); err != nil {
			return false, err
		}
	}
	return d.pos < len(d.win), nil
}

// refill moves the undecoded tail of the window to its front and reads
// the source until the buffer is full again.
func (d *runDecoder) refill() error {
	buf := d.win[:cap(d.win)]
	n := copy(buf, d.win[d.pos:])
	d.pos = 0
	for n < len(buf) && !d.done {
		m, err := d.src.Read(buf[n:])
		n += m
		d.read += int64(m)
		if err == io.EOF {
			d.done = true
		} else if err != nil {
			d.win = buf[:n]
			return fmt.Errorf("ooc: read level file: %w", err)
		}
	}
	d.win = buf[:n]
	return nil
}

// field reads one uvarint that must fit 32 bits; anything longer, or cut
// off by the end of the window, is not a field of a level file.
//
//repro:hotpath
func (d *runDecoder) field() (uint32, bool) {
	var v uint64
	for i, shift := d.pos, 0; i < len(d.win) && shift < 7*maxVarint32; i, shift = i+1, shift+7 {
		c := d.win[i]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			d.pos = i + 1
			return uint32(v), v <= 0xffffffff
		}
	}
	return 0, false
}

// next decodes the next prefix run: afterwards rec[:k-1] is its prefix
// and tails its tails.  It reports false at the end of the window or of
// the expected record count; a record cut short or out of order is a
// corruption error.
//
//repro:hotpath
func (d *runDecoder) next() (bool, error) {
	d.tails = d.tails[:0]
	if ok, err := d.more(); !ok || err != nil || d.limit == 0 {
		return false, err
	}
	if err := d.first(); err != nil {
		return false, err
	}
	// The records that continue the run: one tail each, O(1) to decode
	// and to check, whatever k is.
	k1 := d.k - 1
	last := uint32(0) // the vertex a tail's gap is measured from
	if k1 > 0 {
		last = d.rec[k1-1]
	}
	prev := d.rec[k1]
	for d.limit > 0 {
		if ok, err := d.more(); err != nil {
			return false, err
		} else if !ok {
			break
		}
		var t uint32
		if d.compress {
			at := d.pos
			if l, ok := d.field(); !ok || int64(l) != int64(k1) {
				d.pos = at // the next run's first record; first reports what is wrong with it, if anything
				break
			}
			gap, ok := d.field()
			if !ok {
				return false, corrupt("truncated or oversized record body")
			}
			t = last + gap
			if t < last {
				return false, errOverflow(k1)
			}
		} else {
			if len(d.win)-d.pos < 4*d.k {
				return false, corrupt("truncated record")
			}
			if !d.samePrefix() {
				break
			}
			t = binary.LittleEndian.Uint32(d.win[d.pos+4*k1:])
			d.pos += 4 * d.k
		}
		// Sorted within the run, which also keeps the record strictly
		// increasing: the run's first tail is above the prefix.
		if t <= prev {
			return false, corrupt("records out of sorted order")
		}
		if int64(t) >= int64(d.n) {
			return false, errUniverse(t, d.n)
		}
		d.tails = append(d.tails, t)
		prev = t
		d.limit--
	}
	d.rec[k1] = prev
	return true, nil
}

// samePrefix reports whether the raw record at the window position
// repeats the current run's prefix.
//
//repro:hotpath
func (d *runDecoder) samePrefix() bool {
	for i, p := range d.rec[:d.k-1] {
		if binary.LittleEndian.Uint32(d.win[d.pos+4*i:]) != p {
			return false
		}
	}
	return true
}

// first decodes the record that opens a run into rec and tails: the one
// place where a prefix is read, checked to increase strictly, and
// ordered against the record before it.
func (d *runDecoder) first() error {
	shared := 0 // positions taken over from the previous record
	if !d.compress {
		if len(d.win)-d.pos < 4*d.k {
			return corrupt("truncated record")
		}
		for d.hasPrev && shared < d.k-1 && binary.LittleEndian.Uint32(d.win[d.pos+4*shared:]) == d.rec[shared] {
			shared++
		}
		for i := shared; i < d.k; i++ {
			v := binary.LittleEndian.Uint32(d.win[d.pos+4*i:])
			if i > 0 && v <= d.rec[i-1] {
				return corrupt("record not strictly increasing at position %d", i)
			}
			if i == shared && d.hasPrev && v <= d.rec[i] {
				return corrupt("records out of sorted order")
			}
			d.rec[i] = v
		}
		d.pos += 4 * d.k
	} else {
		l, ok := d.field()
		if !ok {
			return corrupt("truncated or oversized record header")
		}
		if int64(l) >= int64(d.k) {
			return corrupt("shared prefix %d out of [0,%d)", l, d.k)
		}
		if shared = int(l); !d.hasPrev && shared != 0 {
			return corrupt("first record claims a %d-vertex shared prefix", shared)
		}
		for i := shared; i < d.k; i++ {
			v, ok := d.field()
			if !ok {
				return corrupt("truncated or oversized record body")
			}
			if i > 0 {
				if v == 0 {
					return corrupt("record not strictly increasing at position %d", i)
				}
				if v += d.rec[i-1]; v < d.rec[i-1] {
					return errOverflow(i)
				}
			}
			// Position `shared` is the first to differ from the previous
			// record, so sorted order means it grows.
			if i == shared && d.hasPrev && v <= d.rec[i] {
				return corrupt("records out of sorted order")
			}
			d.rec[i] = v
		}
	}
	// Vertices increase strictly, so the tail bounds them all.
	if tail := d.rec[d.k-1]; int64(tail) >= int64(d.n) {
		return errUniverse(tail, d.n)
	}
	d.shared = min(shared, d.k-1)
	d.tails = append(d.tails, d.rec[d.k-1])
	d.hasPrev = true
	d.limit--
	return nil
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("ooc: corrupt level file: "+format, args...)
}

// Out of line, so the decode loop boxes nothing.
func errOverflow(pos int) error { return corrupt("vertex overflow at position %d", pos) }

func errUniverse(v uint32, n int) error {
	return corrupt("vertex %d out of universe [0,%d)", v, n)
}

// lcp returns the length of the longest common prefix of a and b.
func lcp(a, b []uint32) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
