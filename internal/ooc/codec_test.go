package ooc

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomLevel generates a sorted, duplicate-free stream of canonical
// k-records over [0, n).
func randomLevel(rng *rand.Rand, k, n, count int) [][]uint32 {
	seen := map[string]bool{}
	var recs [][]uint32
	for len(recs) < count {
		perm := rng.Perm(n)[:k]
		sort.Ints(perm)
		rec := make([]uint32, k)
		key := ""
		for i, v := range perm {
			rec[i] = uint32(v)
			key += string(rune(v)) + ","
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		recs = append(recs, rec)
	}
	slices.SortFunc(recs, slices.Compare[[]uint32])
	return recs
}

// prefixRun is one sub-list of a sorted record stream.
type prefixRun struct{ prefix, tails []uint32 }

// runsOf groups a sorted record stream into its prefix runs.
func runsOf(recs [][]uint32) []prefixRun {
	var runs []prefixRun
	for _, rec := range recs {
		k1 := len(rec) - 1
		if n := len(runs); n > 0 && slices.Equal(runs[n-1].prefix, rec[:k1]) {
			runs[n-1].tails = append(runs[n-1].tails, rec[k1])
			continue
		}
		runs = append(runs, prefixRun{slices.Clone(rec[:k1]), []uint32{rec[k1]}})
	}
	return runs
}

// encodeRuns is the bare codec over a whole level: one shard's payload,
// without the file around it.
func encodeRuns(k int, compress bool, runs []prefixRun) []byte {
	enc := newRunEncoder(k, compress)
	var out []byte
	for _, r := range runs {
		shared, _ := enc.shared(r.prefix, 0)
		out = append(out, enc.encode(r.prefix, r.tails, shared)...)
	}
	return out
}

// decodeAll drains a decoder into records.
func decodeAll(t *testing.T, d *runDecoder) ([][]uint32, error) {
	t.Helper()
	var recs [][]uint32
	for {
		ok, err := d.next()
		if err != nil || !ok {
			return recs, err
		}
		for _, tail := range d.tails {
			recs = append(recs, append(slices.Clone(d.rec[:d.k-1]), tail))
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, compress := range []bool{false, true} {
		for _, k := range []int{2, 3, 5, 9} {
			recs := randomLevel(rng, k, 80, 200)
			if k == 5 {
				// Long runs too: everything above one 4-prefix.
				for v := uint32(70); v < 80; v++ {
					recs = append(recs, []uint32{60, 61, 62, 63, v})
				}
				slices.SortFunc(recs, slices.Compare[[]uint32])
				recs = slices.CompactFunc(recs, slices.Equal[[]uint32])
			}
			data := encodeRuns(k, compress, runsOf(recs))
			// The window is the whole payload, or a one-record buffer
			// refilled from a reader a few bytes at a time.
			whole := newRunDecoder(k, 80, compress, int64(len(recs)), data, nil)
			small := newRunDecoder(k, 80, compress, int64(len(recs)), nil, nil)
			small.win = make([]byte, 0, small.need)
			small.src = &dribble{r: bytes.NewReader(data)}
			for name, dec := range map[string]*runDecoder{"whole": whole, "refilled": small} {
				got, err := decodeAll(t, dec)
				if err != nil {
					t.Fatalf("compress=%v k=%d %s: %v", compress, k, name, err)
				}
				if !slices.EqualFunc(got, recs, slices.Equal[[]uint32]) {
					t.Fatalf("compress=%v k=%d %s: decoded %d records, want %d, or they differ",
						compress, k, name, len(got), len(recs))
				}
				if dec.pos != len(dec.win) || dec.limit != 0 {
					t.Fatalf("compress=%v k=%d %s: %d bytes and %d records left over",
						compress, k, name, len(dec.win)-dec.pos, dec.limit)
				}
			}
			if small.read != int64(len(data)) {
				t.Errorf("compress=%v k=%d: refilled decoder read %d bytes of %d", compress, k, small.read, len(data))
			}
		}
	}
}

// dribble hands out at most three bytes per Read.
type dribble struct{ r *bytes.Reader }

func (d *dribble) Read(p []byte) (int, error) { return d.r.Read(p[:min(len(p), 3)]) }

// TestCodecCompressionWins pins the point of the delta-varint codec: on
// a sorted clique-rich stream it beats fixed-width by well over 2x.
func TestCodecCompressionWins(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Dense run structure: all C(18,6) combinations of an 18-vertex
	// neighborhood — what a planted-clique level actually looks like.
	var recs [][]uint32
	base := rng.Perm(200)[:18]
	sort.Ints(base)
	var gen func(start int, cur []uint32)
	gen = func(start int, cur []uint32) {
		if len(cur) == 6 {
			recs = append(recs, append([]uint32(nil), cur...))
			return
		}
		for i := start; i < len(base); i++ {
			gen(i+1, append(cur, uint32(base[i])))
		}
	}
	gen(0, nil)
	slices.SortFunc(recs, slices.Compare[[]uint32])

	runs := runsOf(recs)
	raw, packed := len(encodeRuns(6, false, runs)), len(encodeRuns(6, true, runs))
	if raw != 24*len(recs) {
		t.Fatalf("raw encoding %d bytes, want %d", raw, 24*len(recs))
	}
	if packed*2 > raw {
		t.Errorf("delta-varint %d bytes vs raw %d: less than the 2x target", packed, raw)
	}
	t.Logf("level of %d records: raw %d bytes, delta-varint %d (%.1fx)",
		len(recs), raw, packed, float64(raw)/float64(packed))
}

// TestDecoderRejectsCorruption: every class of malformed input surfaces
// an error — never a panic, never silent garbage.
func TestDecoderRejectsCorruption(t *testing.T) {
	// An lcp of 2^63 and more used to wrap negative, pass the range check
	// and panic in the prefix copy.
	hugeLCP := append([]byte{0, 1, 1, 1}, bytes.Repeat([]byte{0x80}, 9)...)
	hugeLCP = append(hugeLCP, 1, 1, 1, 1)
	cases := []struct {
		name     string
		compress bool
		data     []byte
	}{
		{"raw truncated mid-record", false, []byte{1, 0, 0, 0, 2, 0}},
		{"raw not increasing", false, []byte{5, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0}},
		{"raw out of universe", false, []byte{1, 0, 0, 0, 2, 0, 0, 0, 0xff, 0xff, 0, 0}},
		{"raw tail out of universe inside a run", false, []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 100, 0, 0, 0}},
		{"raw truncated inside a run", false, []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 4}},
		{"delta lcp out of range", true, []byte{3, 1, 1, 1}},
		{"delta lcp wraps negative", true, hugeLCP},
		{"delta lcp on first record", true, []byte{2, 1}},
		{"delta truncated body", true, []byte{0, 5}},
		{"delta truncated inside a run", true, []byte{0, 1, 1, 1, 2}},
		{"delta zero gap (duplicate vertex)", true, []byte{0, 4, 0, 1}},
		{"delta zero gap inside a run", true, []byte{0, 1, 1, 1, 2, 0}},
		{"delta out of universe", true, []byte{0, 200, 1, 1}},
		{"delta tail out of universe inside a run", true, []byte{0, 1, 1, 1, 2, 99}},
		{"delta gap past 32 bits", true, []byte{0, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x10}},
		{"delta vertex overflow", true, []byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1}},
		{"delta lcp not canonical", true, []byte{0, 1, 1, 1, 0, 1, 1, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dec := newRunDecoder(3, 100, c.compress, 100, c.data, nil)
			recs, err := decodeAll(t, dec)
			if err == nil {
				t.Fatalf("corrupt input decoded without error (records %v)", recs)
			}
		})
	}
}

// TestDecoderRejectsSortOrderRegression: a record that does not advance
// lexicographically is corruption (level files are sorted) — between
// runs and inside one.
func TestDecoderRejectsSortOrderRegression(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for name, runs := range map[string][]prefixRun{
			// The encoder is not the validator; feed it out of order.
			"between runs": {{[]uint32{5, 6}, []uint32{7}}, {[]uint32{1, 2}, []uint32{3}}},
			"inside a run": {{[]uint32{5, 6}, []uint32{9, 8}}},
			"repeated":     {{[]uint32{5, 6}, []uint32{7, 7}}},
		} {
			data := encodeRuns(3, compress, runs)
			if recs, err := decodeAll(t, newRunDecoder(3, 100, compress, 2, data, nil)); err == nil {
				t.Errorf("compress=%v %s: out-of-order stream accepted as %v", compress, name, recs)
			}
		}
	}
}
