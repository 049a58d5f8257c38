package ooc

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzShardDecode is the contract of the one reader of bytes a crash, a
// full disk or another process may have left behind: arbitrary shard
// files, read for small k and n whole, dribbled a few bytes at a time
// and a frame at a time as decode-ahead reads them, give an error —
// the same way every time — or exactly meta.Records records that are
// strictly increasing, inside the universe and in strictly sorted order,
// and never a panic or a read past the data.  A shard that reads is
// then read again with one bit flipped, which must be an error, and
// joined over a fixed graph by a worker's kernel: a record that leaves
// N(p0) of its prefix must fail the join (Builder.ProcessRecord), and
// nothing may panic.
func FuzzShardDecode(f *testing.F) {
	// An lcp escape of 2^32-1: the prefix copy must not wrap.
	f.Add(shardFile(3, frame(hdr(0, 1), 1, 2, 3, hdr(0xff, 1), 0xffffffff, 4)), uint8(1), uint16(100), uint16(2), uint16(0))
	// The golden shards as they are, cut at every byte, with trailing
	// garbage, with a bit flipped in every byte, against a universe that
	// ends below their largest vertex, read as a level of 4-cliques, and
	// as one shard of the whole corpus.
	metas, files := goldenFiles(f)
	_, whole := writeShards(f, 3, 1<<30, goldenFeeds(goldenCorpus())["runs"])
	files = append(files, whole[0])
	metas = append(metas, ShardMeta{Records: int64(len(goldenCorpus()))})
	for i, data := range files {
		records := uint16(metas[i].Records)
		for cut := range data {
			f.Add(data[:cut], uint8(1), uint16(401), records, uint16(cut))
		}
		for at := range data {
			flipped := slices.Clone(data)
			flipped[at] ^= 1 << (at % 8)
			f.Add(flipped, uint8(1), uint16(401), records, uint16(at))
		}
		f.Add(data, uint8(1), uint16(401), records, uint16(i))
		f.Add(append(slices.Clone(data), 2, 1), uint8(1), uint16(401), records, uint16(i))
		f.Add(append(slices.Clone(data), data[:12]...), uint8(1), uint16(401), records, uint16(i))
		f.Add(data, uint8(1), uint16(100), records, uint16(i))
		f.Add(data, uint8(2), uint16(401), records, uint16(i))
	}

	// The join's graph: every vertex a read accepts, the golden corpus's
	// seven as a clique, so its records reach the join, over a G(n, p)
	// background where an arbitrary record mostly leaves N(p0).
	joinGraph := graph.RandomGNP(rand.New(rand.NewSource(29)), 500, 0.3)
	graph.PlantClique(joinGraph, []int{0, 2, 3, 9, 140, 141, 400})
	joiner := NewJoiner(joinGraph)

	f.Fuzz(func(t *testing.T, data []byte, kIn uint8, nIn, records, flip uint16) {
		k := 2 + int(kIn)%5
		n := 1 + int(nIn)%500
		// Exactly-sized, so a read past the data is an index panic.
		data = slices.Clip(data)
		meta := ShardMeta{Path: "fuzz", Records: int64(records), Bytes: int64(len(data))}

		got, err := readRecords(OpenShardBytes(data, meta, k, n, false))
		dribbledRecs, dribbledErr := readRecords(dribbled(data, meta, k, n))
		if (err == nil) != (dribbledErr == nil) {
			t.Fatalf("in-memory read: %v; dribbled read: %v", err, dribbledErr)
		}
		blocks, blocksErr := readBlocks(data, meta, k, n)
		if (err == nil) != (blocksErr == nil) {
			t.Fatalf("record read: %v; frame read: %v", err, blocksErr)
		}
		if err != nil {
			return
		}
		for name, other := range map[string][][]uint32{"dribbled": dribbledRecs, "frame": blocks} {
			if !slices.EqualFunc(got, other, slices.Equal[[]uint32]) {
				t.Fatalf("record and %s reads differ: %v vs %v", name, got, other)
			}
		}
		if len(got) != int(records) {
			t.Fatalf("read %d records without error, meta says %d", len(got), records)
		}
		for i, rec := range got {
			for j, v := range rec {
				if int(v) >= n || (j > 0 && v <= rec[j-1]) {
					t.Fatalf("record %d = %v: not strictly increasing inside [0,%d)", i, rec, n)
				}
			}
			if i > 0 && slices.Compare(got[i-1], rec) >= 0 {
				t.Fatalf("records %d, %d out of sorted order: %v, %v", i-1, i, got[i-1], rec)
			}
		}
		bit := int(flip) % (8 * len(data))
		flipped := slices.Clone(data)
		flipped[bit/8] ^= 1 << (bit % 8)
		if recs, err := readRecords(OpenShardBytes(flipped, meta, k, n, false)); err == nil {
			t.Fatalf("bit %d flipped, the shard still reads, as %v", bit, recs)
		}
		if err := joinBytes(joiner, data, meta, k); err != nil && !strings.Contains(err.Error(), "outside N(") {
			t.Fatalf("a shard that reads failed its join: %v", err)
		}
	})
}

// joinBytes joins a shard's records over the joiner's graph as a worker
// does — read and admitted a block at a time through a buffer too small
// for most frames, then joined — its output dropped: an error, or a join.
func joinBytes(j *Joiner, data []byte, meta ShardMeta, k int) error {
	r, err := OpenShardBytes(data, meta, k, j.g.N(), false)
	if err != nil {
		return err
	}
	var st JoinStats
	return j.joinSerial(context.Background(), r, 16, &st, &st, discard{})
}

// discard drops a join's output.
type discard struct{}

func (discard) write([]core.Block) error { return nil }

// readBlocks reads a shard a frame at a time into a buffer too small for
// most frames, the way decode-ahead reads it, and flattens the blocks
// into records.
func readBlocks(data []byte, meta ShardMeta, k, n int) ([][]uint32, error) {
	r, err := OpenShardBytes(data, meta, k, n, false)
	if err != nil {
		return nil, err
	}
	buf := make([]uint32, 4)
	var out [][]uint32
	for {
		var blk core.Block
		if blk, buf, err = r.block(buf); err != nil {
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
	}
}

// FuzzLoadManifest feeds arbitrary bytes to the checkpoint manifest
// loader, the one reader of the file a resume trusts to name the shards
// it joins.  The property: either an error, or a manifest whose shard
// paths are distinct .ooc base names — so no resume can leave the run
// directory or join a shard twice — and which a WriteManifest ->
// LoadManifest round trip leaves unchanged.
func FuzzLoadManifest(f *testing.F) {
	v3, err := os.ReadFile(filepath.Join("testdata", "ckpt-v3", manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	var m Manifest
	if err := json.Unmarshal(v3, &m); err != nil {
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
