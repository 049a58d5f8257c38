package ooc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzShardDecode feeds arbitrary shard payloads to the run decoder, for
// both encodings and small k and n, through both windows: the whole
// shard in memory, and a one-record buffer refilled from a reader.  The
// property: either an error, or exactly meta.Records records that are
// strictly increasing, inside the universe and in strictly sorted order
// — the same either way — and never a panic or a read past the data.
// The on-disk join's decoder packs the same runs into level blocks; the
// records those blocks hold must be ShardReader.Next's, at any block
// size, or both must fail.  Whatever decodes is then joined over a fixed
// graph by a worker's kernel: a record that leaves N(p0) of its prefix
// must fail the join with an error, and nothing may panic.
func FuzzShardDecode(f *testing.F) {
	// The lcp that used to wrap negative and panic the prefix copy.
	f.Add(append([]byte{0, 1, 1, 1}, append(bytes.Repeat([]byte{0x80}, 9), 1, 1, 1, 1)...), true, uint8(3), uint16(100), uint16(2))
	// A valid shard of each encoding, cut at every byte, and with
	// trailing garbage.
	recs := goldenCorpus()
	for _, compress := range []bool{false, true} {
		payload := encodeRuns(3, compress, runsOf(recs))
		for cut := 0; cut <= len(payload); cut++ {
			f.Add(payload[:cut], compress, uint8(3), uint16(401), uint16(len(recs)))
		}
		f.Add(append(slices.Clone(payload), 2, 1), compress, uint8(3), uint16(401), uint16(len(recs)))
		f.Add(append(slices.Clone(payload), payload[:12]...), compress, uint8(3), uint16(401), uint16(len(recs)))
	}
	// The golden shard files, as they are, then with a bit flipped in
	// every byte, with two records out of order, against a universe that
	// ends below their largest vertex, and read as a level of 4-cliques.
	for _, g := range goldenShards {
		for i, h := range g.shards {
			data, err := hex.DecodeString(h)
			if err != nil {
				f.Fatal(err)
			}
			payload, records := data[shardHeaderLen:], uint16(g.records[i])
			f.Add(payload, g.compress, uint8(1), uint16(400), records)
			for at := range payload {
				flipped := slices.Clone(payload)
				flipped[at] ^= 1 << (at % 8)
				f.Add(flipped, g.compress, uint8(1), uint16(400), records)
			}
			if !g.compress {
				swapped := slices.Clone(payload)
				copy(swapped[:12], payload[12:24])
				copy(swapped[12:24], payload[:12])
				f.Add(swapped, false, uint8(1), uint16(400), records)
			}
			f.Add(payload, g.compress, uint8(1), uint16(100), records)
			f.Add(payload, g.compress, uint8(2), uint16(400), records)
		}
	}

	// The join's graph: every vertex a decode accepts, the golden corpus's
	// seven as a clique, so its records reach the join, over a G(n, p)
	// background where an arbitrary record mostly leaves N(p0).
	joinGraph := graph.RandomGNP(rand.New(rand.NewSource(29)), 500, 0.3)
	graph.PlantClique(joinGraph, []int{0, 2, 3, 9, 140, 141, 400})
	joiner := NewJoiner(joinGraph)

	f.Fuzz(func(t *testing.T, payload []byte, compress bool, kIn uint8, nIn, records uint16) {
		k := 2 + int(kIn)%5
		n := 1 + int(nIn)%500
		meta := ShardMeta{Path: "fuzz", Records: int64(records)}
		// Exactly-sized, so a read past the data is an index panic.
		data := slices.Clip(append(shardHeader(k, compress), payload...))
		meta.Bytes = int64(len(data))

		decode := func(r *ShardReader, err error) ([][]uint32, error) {
			if err != nil {
				return nil, err
			}
			var out [][]uint32
			rec := make([]uint32, k)
			for err = r.Next(rec); err == nil; err = r.Next(rec) {
				out = append(out, slices.Clone(rec))
			}
			if err == io.EOF {
				err = nil
			}
			return out, err
		}
		whole, wholeErr := decode(OpenShardBytes(data, meta, k, n, compress))
		win := make([]byte, 0, max(shardHeaderLen, maxVarint32*(k+1)))
		windowed, windowedErr := decode(newShardReader(win, bytes.NewReader(data), meta, k, n, compress))

		if (wholeErr == nil) != (windowedErr == nil) {
			t.Fatalf("in-memory decode: %v; windowed decode: %v", wholeErr, windowedErr)
		}
		for _, words := range []int{1, core.MaxBlockBytes / 4} {
			blocks, err := decodeBlocks(data, meta, k, n, compress, words)
			if (err == nil) != (wholeErr == nil) {
				t.Fatalf("record decode: %v; block decode (%d-word blocks): %v", wholeErr, words, err)
			}
			if err == nil && !slices.EqualFunc(blocks, whole, slices.Equal[[]uint32]) {
				t.Fatalf("%d-word blocks hold %v, the records are %v", words, blocks, whole)
			}
		}
		if wholeErr != nil {
			return
		}
		if !slices.EqualFunc(whole, windowed, slices.Equal[[]uint32]) {
			t.Fatalf("in-memory and windowed decodes differ: %v vs %v", whole, windowed)
		}
		if len(whole) != int(records) {
			t.Fatalf("decoded %d records without error, meta says %d", len(whole), records)
		}
		for i, rec := range whole {
			for j, v := range rec {
				if int(v) >= n || (j > 0 && v <= rec[j-1]) {
					t.Fatalf("record %d = %v: not strictly increasing inside [0,%d)", i, rec, n)
				}
			}
			if i > 0 && slices.Compare(whole[i-1], rec) >= 0 {
				t.Fatalf("records %d, %d out of sorted order: %v, %v", i-1, i, whole[i-1], rec)
			}
		}
		if err := joinBytes(joiner, data, meta, k, compress); err != nil && !strings.Contains(err.Error(), "outside N(") {
			t.Fatalf("a decoded shard failed its join: %v", err)
		}
	})
}

// joinBytes joins a shard's records over the joiner's graph as a worker
// does, its output dropped: an error, or a join.
func joinBytes(j *Joiner, data []byte, meta ShardMeta, k int, compress bool) error {
	r, err := OpenShardBytes(data, meta, k, j.g.N(), compress)
	if err != nil {
		return err
	}
	var st JoinStats
	drop := func([]core.Block) (bool, error) { return true, nil }
	br := blockReader{r: r}
	buf := make([]uint32, core.MaxBlockBytes/4)
	j.b.Reset()
	j.mark = 0
	for {
		var blk core.Block
		if blk, buf, err = br.next(buf); err != nil {
			return err
		}
		if len(blk.Words()) == 0 {
			return j.flush(&st, drop)
		}
		if err := j.joinBlock(&blk, k, len(buf), &st, &st, drop); err != nil {
			return err
		}
	}
}

// decodeBlocks packs a shard's runs into blocks of words words the way
// decode-ahead does, and flattens the blocks back into records.
func decodeBlocks(data []byte, meta ShardMeta, k, n int, compress bool, words int) ([][]uint32, error) {
	r, err := OpenShardBytes(data, meta, k, n, compress)
	if err != nil {
		return nil, err
	}
	br := blockReader{r: r}
	buf := make([]uint32, words)
	var out [][]uint32
	for {
		var blk core.Block
		if blk, buf, err = br.next(buf); err != nil {
			return nil, err
		}
		if len(blk.Words()) == 0 {
			return out, nil
		}
		for s := range blk.Records(k) {
			for _, t := range s.Tails {
				out = append(out, append(slices.Clone(s.Prefix), t))
			}
		}
		buf = buf[:words:words] // a grown buffer goes back to its size
	}
}

// FuzzLoadManifest feeds arbitrary bytes to the checkpoint manifest
// loader, the one reader of the file a resume trusts to name the shards
// it joins.  The property: either an error, or a manifest whose shard
// paths are distinct .ooc base names — so no resume can leave the run
// directory or join a shard twice — and which a WriteManifest ->
// LoadManifest round trip leaves unchanged.
func FuzzLoadManifest(f *testing.F) {
	parent, err := os.ReadFile(filepath.Join("testdata", "ckpt-parent", manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	var m Manifest
	if err := json.Unmarshal(parent, &m); err != nil {
		f.Fatal(err)
	}
	m.Shards = append(m.Shards, m.Shards[0])
	dup, err := json.Marshal(&m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dup)
	// A worker runs its inputs one at a time: two directories serve them
	// all, the manifest in each replaced by every input.
	dir, again := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(dir)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, s := range m.Shards {
			if s.Path != filepath.Base(s.Path) || !strings.HasSuffix(s.Path, shardSuffix) || seen[s.Path] {
				t.Fatalf("accepted shard path %q among %v", s.Path, m.Shards)
			}
			seen[s.Path] = true
		}
		if err := WriteManifest(again, m, true); err != nil {
			t.Fatal(err)
		}
		back, err := LoadManifest(again)
		if err != nil {
			t.Fatalf("a written manifest does not load: %v", err)
		}
		// Compared encoded: JSON has one spelling for an empty and an
		// absent list, so nil and empty slices are the same manifest.
		want, _ := json.Marshal(m)
		got, _ := json.Marshal(back)
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the manifest:\n%s\nwant\n%s", got, want)
		}
	})
}
