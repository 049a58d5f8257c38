package ooc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// hdr is a record header word: lcp in bits 0-7, the tail count in 8-23.
func hdr(lcp, tails uint32) uint32 { return lcp | tails<<8 }

// frame is one block as a shard holds it: its word count, the CRC-32C
// of its words, the words.
func frame(words ...uint32) []byte {
	body := make([]byte, 0, 4*len(words))
	for _, w := range words {
		body = binary.LittleEndian.AppendUint32(body, w)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(words)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// shardFile is the file of a shard of k-cliques holding frames.
func shardFile(k int, frames ...[]byte) []byte {
	return slices.Concat(append([][]byte{shardHeader(k)}, frames...)...)
}

// readRecords reads every record of a shard through Next.
func readRecords(r *ShardReader, err error) ([][]uint32, error) {
	if err != nil {
		return nil, err
	}
	var recs [][]uint32
	rec := make([]uint32, r.k)
	for err = r.Next(rec); err == nil; err = r.Next(rec) {
		recs = append(recs, slices.Clone(rec))
	}
	if err == io.EOF {
		err = nil
	}
	return recs, err
}

// dribbled opens an in-memory shard through a source that hands out at
// most three bytes a Read: every frame arrives in pieces.
func dribbled(data []byte, meta ShardMeta, k, n int) (*ShardReader, error) {
	r := &ShardReader{size: int64(len(data))}
	if err := r.start(&dribble{r: bytes.NewReader(data)}, meta, k, n); err != nil {
		return nil, err
	}
	return r, nil
}

// TestCodecRoundTrip writes sorted levels through the run feed and reads
// them back, whole and dribbled, record by record.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
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
		for _, target := range []int64{1 << 30, 200} {
			metas, files := writeShards(t, k, target, func(lw *LevelWriter) error {
				for _, r := range runsOf(recs) {
					if err := lw.WriteRun(r.prefix, r.tails); err != nil {
						return err
					}
				}
				return nil
			})
			var whole, small [][]uint32
			for i, data := range files {
				got, err := readRecords(OpenShardBytes(data, metas[i], k, 80, false))
				if err != nil {
					t.Fatalf("k=%d target %d shard %d: %v", k, target, i, err)
				}
				whole = append(whole, got...)
				if got, err = readRecords(dribbled(data, metas[i], k, 80)); err != nil {
					t.Fatalf("k=%d target %d shard %d dribbled: %v", k, target, i, err)
				}
				small = append(small, got...)
			}
			for name, got := range map[string][][]uint32{"whole": whole, "dribbled": small} {
				if !slices.EqualFunc(got, recs, slices.Equal[[]uint32]) {
					t.Fatalf("k=%d target %d %s: read %d records, want %d, or they differ",
						k, target, name, len(got), len(recs))
				}
			}
			if target < 1<<30 && len(files) < 2 {
				t.Errorf("k=%d: a %d-byte target left the level in one shard", k, target)
			}
		}
	}
}

// dribble hands out at most three bytes per Read.
type dribble struct{ r *bytes.Reader }

func (d *dribble) Read(p []byte) (int, error) { return d.r.Read(p[:min(len(p), 3)]) }

// TestCodecCompressionWins pins the point of front-coded blocks on disk:
// on a sorted clique-rich stream the frames beat fixed-width records by
// well over 2x, each run's prefix spelled once and only where it
// differs from the run before.
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

	metas, _ := writeShards(t, 6, 1<<30, func(lw *LevelWriter) error {
		for _, r := range runsOf(recs) {
			if err := lw.WriteRun(r.prefix, r.tails); err != nil {
				return err
			}
		}
		return nil
	})
	packed, raw := LevelBytes(metas)
	if raw != 24*int64(len(recs)) {
		t.Fatalf("fixed-width equivalent %d bytes, want %d", raw, 24*len(recs))
	}
	if packed*2 > raw {
		t.Errorf("frames %d bytes vs fixed-width %d: less than the 2x target", packed, raw)
	}
	t.Logf("level of %d records: fixed-width %d bytes, frames %d (%.1fx)",
		len(recs), raw, packed, float64(raw)/float64(packed))
}

// TestDecoderRejectsCorruption: every class of malformed input surfaces
// an error that says what is wrong — never a panic, never silent
// garbage.  The frames carry a valid CRC, so the walk (core.Verifier)
// and not the checksum must find what the "raw" cases break in a
// record's vertex words and the "delta" cases in its front coding — the
// lcp, counts and spelled suffix by which a record differs from the one
// before it.  The remaining cases break the file around the blocks.
func TestDecoderRejectsCorruption(t *testing.T) {
	good := frame(hdr(0, 1), 1, 2, 3)
	flipped := slices.Clone(good)
	flipped[len(flipped)-1] ^= 0x10
	long := slices.Clone(good)
	long[0] = 100
	v1 := shardFile(3, good)
	v1[4] = 1
	cases := []struct {
		name    string
		data    []byte
		records int64
		want    string
	}{
		// The manifest says how long the file was before it was cut.
		{"raw truncated mid-record", shardFile(3, good, good[:len(good)-3]), 2, "truncated frame"},
		{"raw not increasing", shardFile(3, frame(hdr(0, 1), 5, 5, 6)), 1, "prefix not strictly increasing"},
		{"raw out of universe", shardFile(3, frame(hdr(0, 1), 1, 2, 200)), 1, "out of the universe"},
		{"raw tail out of universe inside a run", shardFile(3, frame(hdr(0, 2), 1, 2, 3, 100)), 2, "out of the universe"},
		{"raw truncated inside a run", shardFile(3, frame(hdr(0, 3), 1, 2, 3, 4)), 3, "truncated record"},
		{"delta lcp out of range", shardFile(3, frame(hdr(0, 1), 1, 2, 3, hdr(3, 1), 4)), 2, "shared prefix out of range"},
		{"delta lcp wraps negative", shardFile(3, frame(hdr(0, 1), 1, 2, 3, hdr(0xff, 1), 0xffffffff, 4)), 2, "shared prefix out of range"},
		{"delta lcp on first record", shardFile(3, frame(hdr(1, 1), 2, 3)), 1, "shared prefix out of range"},
		{"delta truncated body", shardFile(3, frame(hdr(0, 1), 1)), 1, "truncated record"},
		{"delta truncated inside a run", shardFile(3, frame(hdr(0, 1), 1, 2, 3, hdr(1, 1), 4)), 2, "truncated record"},
		{"delta zero gap (duplicate vertex)", shardFile(3, frame(hdr(0, 1), 1, 2, 3, hdr(1, 1), 1, 4)), 2, "prefix not strictly increasing"},
		{"delta zero gap inside a run", shardFile(3, frame(hdr(0, 2), 1, 2, 3, 3)), 2, "tails not strictly increasing"},
		{"delta out of universe", shardFile(3, frame(hdr(0, 1), 1, 2, 3, hdr(1, 1), 150, 160)), 2, "out of the universe"},
		{"delta tail out of universe inside a run", shardFile(3, frame(hdr(0, 1), 1, 2, 3, hdr(1, 2), 4, 5, 100)), 3, "out of the universe"},
		// An escaped tail count at the top of 32 bits must not wrap the
		// bounds check; a vertex after 2^32-1 must not wrap to 0; a run
		// spelled again in full must not repeat the prefix before it.
		{"delta gap past 32 bits", shardFile(3, frame(hdr(0, 0xffff), 0xffffffff, 1, 2, 3)), 1, "truncated record"},
		{"delta vertex overflow", shardFile(3, frame(hdr(0, 2), 1, 0xffffffff, 0, 1)), 2, "tails not strictly increasing"},
		{"delta lcp not canonical", shardFile(3, frame(hdr(0, 1), 1, 2, 3, hdr(0, 1), 1, 2, 4)), 2, "out of order"},
		{"checksum", shardFile(3, flipped), 1, "checksum mismatch"},
		{"magic", append([]byte("OOCX"), shardFile(3, good)[4:]...), 1, "bad magic"},
		{"format version 1", v1, 1, "unsupported format version 1"},
		{"short header", shardFile(3)[:5], 0, "short header"},
		{"clique size", shardFile(4, good), 1, "clique size 4"},
		{"empty frame", shardFile(3, frame()), 1, "empty frame"},
		{"frame past the end", shardFile(3, long), 1, "frame length past the shard's end"},
		{"reserved header bits", shardFile(3, frame(1<<24|hdr(0, 1), 1, 2, 3)), 1, "reserved header bits"},
		{"sub-list without tails", shardFile(3, frame(hdr(0, 0), 1, 2)), 1, "without tails"},
		{"prefix twice in a block", shardFile(3, frame(hdr(0, 1), 1, 2, 3, hdr(2, 1), 4)), 2, "out of order"},
		{"prefix twice across frames", shardFile(3, good, frame(hdr(0, 1), 1, 2, 4)), 2, "out of order"},
		{"frames out of order", shardFile(3, frame(hdr(0, 1), 5, 6, 7), good), 2, "out of order"},
		{"fewer records than the manifest", shardFile(3, good), 2, "1 records, manifest expects 2"},
		{"more records than the manifest", shardFile(3, frame(hdr(0, 2), 1, 2, 3, 4)), 1, "more records"},
		{"trailing data", append(shardFile(3, good), 1, 2, 3), 1, "trailing data"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			meta := ShardMeta{Path: "corrupt", Records: c.records, Bytes: int64(len(c.data))}
			if c.name == "raw truncated mid-record" {
				meta.Bytes += 3
			}
			recs, err := readRecords(OpenShardBytes(c.data, meta, 3, 100, false))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got records %v, error %v; want an error about %q", recs, err, c.want)
			}
		})
	}
}

// TestDecoderRejectsSortOrderRegression: a record that does not advance
// lexicographically is corruption (level files are sorted) — between
// runs, inside one, and between the frames of a shard.
func TestDecoderRejectsSortOrderRegression(t *testing.T) {
	for name, runs := range map[string][]prefixRun{
		// The writer is not the validator; feed it out of order.
		"between runs": {{[]uint32{5, 6}, []uint32{7}}, {[]uint32{1, 2}, []uint32{3}}},
		"inside a run": {{[]uint32{5, 6}, []uint32{9, 8}}},
		"repeated":     {{[]uint32{5, 6}, []uint32{7, 7}}},
	} {
		metas, files := writeShards(t, 3, 1<<30, func(lw *LevelWriter) error {
			for _, r := range runs {
				if err := lw.WriteRun(r.prefix, r.tails); err != nil {
					return err
				}
			}
			return nil
		})
		if recs, err := readRecords(OpenShardBytes(files[0], metas[0], 3, 100, false)); err == nil {
			t.Errorf("%s: out-of-order stream accepted as %v", name, recs)
		}
	}
	data := shardFile(3, frame(hdr(0, 1), 5, 6, 7), frame(hdr(0, 1), 5, 6, 7))
	meta := ShardMeta{Path: "twice", Records: 2, Bytes: int64(len(data))}
	if recs, err := readRecords(OpenShardBytes(data, meta, 3, 100, false)); err == nil {
		t.Errorf("between frames: out-of-order stream accepted as %v", recs)
	}
}
