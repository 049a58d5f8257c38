package ooc

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
)

// goldenCorpus is every 3-subset of seven vertices: 35 sorted records in
// 15 prefix runs.
func goldenCorpus() [][]uint32 {
	verts := []uint32{0, 2, 3, 9, 140, 141, 400}
	var recs [][]uint32
	for a := range verts {
		for b := a + 1; b < len(verts); b++ {
			for c := b + 1; c < len(verts); c++ {
				recs = append(recs, []uint32{verts[a], verts[b], verts[c]})
			}
		}
	}
	return recs
}

// goldenShards are the shard files LevelWriter writes for goldenCorpus
// with a target small enough to split the level, version 2 of the format:
// 7 header bytes ("OOCS", version 2, a zero byte, k 3), then one frame
// per block, 8 + 4·words bytes — the word count, the CRC-32C of the
// words, the words.  A frame ends at a run start (here, where the first
// vertex changes) once the shard reaches its target with it.  The first
// shard's one frame holds the five runs of vertex 0 in 26 words:
// [0 2 | 3 9 140 141 400] in 1 + 2 + 5 (header, prefix, tails), then
// [0 3], [0 9], [0 140] and [0 141], each taking the 0 over from the run
// before, in 1 + 1 + 4, 1 + 1 + 3, 1 + 1 + 2 and 1 + 1 + 1: 7 + 8 + 4·26
// = 119 bytes.
var goldenShards = struct {
	target  int64
	records []int64 // per shard
	shards  []string
}{
	64, []int64{15, 10, 6, 4}, []string{
		"4f4f43530200031a0000001155ff9d00050000000000000200000003000000090000008c0000008d000000900100000104000003000000090000008c0000008d0000009001000001030000090000008c0000008d00000090010000010200008c0000008d00000090010000010100008d00000090010000",
		"4f4f4353020003130000002a59b3e2000400000200000003000000090000008c0000008d0000009001000001030000090000008c0000008d00000090010000010200008c0000008d00000090010000010100008d00000090010000",
		"4f4f43530200030d000000519d04ff0003000003000000090000008c0000008d00000090010000010200008c0000008d00000090010000010100008d00000090010000",
		"4f4f43530200030c0000009979820000020000090000008c0000008d00000090010000010100008d00000090010000000100008c0000008d00000090010000",
	},
}

// writeShards writes a level through feed and returns the shard files'
// bytes in order.
func writeShards(t testing.TB, k int, target int64, feed func(lw *LevelWriter) error) ([]ShardMeta, [][]byte) {
	t.Helper()
	dir := t.TempDir()
	seq := 0
	lw := NewLevelWriter(dir, k, false, target, nil, func() (string, error) {
		seq++
		return ShardFileName(k, fmt.Sprintf("%06d", seq)), nil
	}, func(enc, raw int64) error { return nil })
	if err := feed(lw); err != nil {
		t.Fatal(err)
	}
	metas, err := lw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var files [][]byte
	for _, m := range metas {
		data, err := os.ReadFile(filepath.Join(dir, m.Path))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != m.Bytes {
			t.Fatalf("%s: %d bytes on disk, meta says %d", m.Path, len(data), m.Bytes)
		}
		files = append(files, data)
	}
	return metas, files
}

// goldenFeeds are the two ways of writing goldenCorpus: whole runs, and
// the same stream a record at a time through the Write adapter.
func goldenFeeds(recs [][]uint32) map[string]func(*LevelWriter) error {
	return map[string]func(*LevelWriter) error{
		"runs": func(lw *LevelWriter) error {
			for _, r := range runsOf(recs) {
				if err := lw.WriteRun(r.prefix, r.tails); err != nil {
					return err
				}
			}
			return nil
		},
		"records": func(lw *LevelWriter) error {
			for _, rec := range recs {
				if err := lw.Write(rec); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// TestFormatDidNotMove pins the on-disk bytes: whole runs, and the same
// stream through the per-record Write adapter, must both reproduce the
// golden shard files — split points included.
func TestFormatDidNotMove(t *testing.T) {
	recs := goldenCorpus()
	g := goldenShards
	for name, feed := range goldenFeeds(recs) {
		metas, files := writeShards(t, 3, g.target, feed)
		if len(files) != len(g.shards) {
			t.Fatalf("%s: %d shards, golden has %d", name, len(files), len(g.shards))
		}
		var records, runs int64
		for i, data := range files {
			if got := hex.EncodeToString(data); got != g.shards[i] {
				t.Errorf("%s: shard %d\n got %s\nwant %s", name, i, got, g.shards[i])
			}
			if metas[i].Records != g.records[i] {
				t.Errorf("%s: shard %d holds %d records, golden %d", name, i, metas[i].Records, g.records[i])
			}
			records += metas[i].Records
			runs += metas[i].Runs
		}
		if records != int64(len(recs)) || runs != int64(len(runsOf(recs))) {
			t.Errorf("%s: metas count %d records in %d runs, want %d in %d",
				name, records, runs, len(recs), len(runsOf(recs)))
		}
	}
}

// goldenFiles returns the golden shard files with their metas.
func goldenFiles(t testing.TB) ([]ShardMeta, [][]byte) {
	var metas []ShardMeta
	var files [][]byte
	for i, h := range goldenShards.shards {
		data, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, ShardMeta{Path: fmt.Sprintf("golden-%d", i), Bytes: int64(len(data)), Records: goldenShards.records[i]})
		files = append(files, data)
	}
	return metas, files
}

// TestGoldenShardsDecode reads the golden files back through both reader
// entries — in memory and from a file, whose bytes read must be the
// file's — and requires every single bit flipped anywhere in them to be
// an error.
func TestGoldenShardsDecode(t *testing.T) {
	want := goldenCorpus()
	var inMemory, fromFile [][]uint32
	metas, files := goldenFiles(t)
	dir := t.TempDir()
	for i, data := range files {
		meta := metas[i]
		got, err := readRecords(OpenShardBytes(data, meta, 3, 401, false))
		if err != nil {
			t.Fatal(err)
		}
		inMemory = append(inMemory, got...)
		if err := os.WriteFile(filepath.Join(dir, meta.Path), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenShard(dir, meta, 3, 401, false, nil)
		if got, err = readRecords(r, err); err != nil {
			t.Fatalf("file reader: %v", err)
		}
		fromFile = append(fromFile, got...)
		if r.BytesRead() != int64(len(data)) || r.Close() != nil {
			t.Errorf("file reader pulled %d bytes of %d", r.BytesRead(), len(data))
		}
		for bit := range 8 * len(data) {
			flipped := slices.Clone(data)
			flipped[bit/8] ^= 1 << (bit % 8)
			if recs, err := readRecords(OpenShardBytes(flipped, meta, 3, 401, false)); err == nil {
				t.Fatalf("shard %d with bit %d flipped reads as %v", i, bit, recs)
			}
		}
	}
	for name, got := range map[string][][]uint32{"in memory": inMemory, "from a file": fromFile} {
		if !slices.EqualFunc(got, want, slices.Equal[[]uint32]) {
			t.Errorf("%s: decoded %d records, want the corpus's %d", name, len(got), len(want))
		}
	}
}

// TestResumeParentCheckpoint: a checkpoint of an older format
// (testdata/ckpt-parent: manifest version 2, delta-varint shards) is
// refused with the manifest-version error before anything in its
// directory is touched — no sweep, no join, no commit.
func TestResumeParentCheckpoint(t *testing.T) {
	src := filepath.Join("testdata", "ckpt-parent")
	dir := copyDir(t, src)
	g := readGraph(t, filepath.Join(dir, "graph.el"))
	_, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("manifest version 2, this build reads %d", ManifestVersion)) {
		t.Fatalf("resuming a version-2 checkpoint: %v, want the manifest-version error", err)
	}
	if got, want := dirBytes(t, dir), dirBytes(t, src); !maps.EqualFunc(got, want, bytes.Equal) {
		t.Errorf("the refused checkpoint's directory changed: %d files, had %d", len(got), len(want))
	}
}

// updateCkpt rewrites testdata/ckpt-v3 from the run TestResumeV3Checkpoint
// describes.
var updateCkpt = flag.Bool("update", false, "rewrite testdata/ckpt-v3")

// TestResumeV3Checkpoint resumes a checkpoint directory this format wrote
// (testdata/ckpt-v3: a checkpointed run at 64 bytes a shard over the
// graph of ckpt-parent, killed while joining level 4) and requires the
// reference stream from that level on.  With -update it first writes the
// fixture again: the run, killed at its first 5-clique, its manifest's
// owner stamp replaced by a neutral one, and the graph.
func TestResumeV3Checkpoint(t *testing.T) {
	fixture := filepath.Join("testdata", "ckpt-v3")
	if *updateCkpt {
		writeV3Fixture(t, filepath.Join("testdata", "ckpt-parent", "graph.el"), fixture)
	}
	dir := copyDir(t, fixture)
	g := readGraph(t, filepath.Join(dir, "graph.el"))
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 4 {
		t.Fatalf("fixture checkpoint at level %d, want 4", m.K)
	}
	var levels []core.LevelStats
	full, fullStats := orderedKeys(t, g, enumcfg.Config{ShardBytes: 64},
		core.Hooks{OnLevel: func(ls core.LevelStats) { levels = append(levels, ls) }})
	var resumed []string
	st, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) {
		resumed = append(resumed, c.Key())
	})})
	if err != nil {
		t.Fatal(err)
	}
	// The interrupted level is re-joined from its start: the resumed
	// stream is the reference from the first clique of size K+1 on.
	from := slices.IndexFunc(full, func(key string) bool { return strings.Count(key, ",") >= m.K })
	if from < 0 || !slices.Equal(resumed, full[from:]) {
		t.Fatalf("resumed stream (%d cliques) is not the reference from its first %d-clique on (%d cliques)",
			len(resumed), m.K+1, len(full)-max(from, 0))
	}
	if st.Maximal != fullStats.Maximal || st.BytesWritten != fullStats.BytesWritten || st.BytesRead != fullStats.BytesRead {
		t.Errorf("resumed run: %d maximal, %d bytes written, %d read; the uninterrupted run %d, %d, %d",
			st.Maximal, st.BytesWritten, st.BytesRead, fullStats.Maximal, fullStats.BytesWritten, fullStats.BytesRead)
	}
	// From K on the resumed run moves exactly the bytes the uninterrupted
	// run's records say those levels hold.
	var wrote, read int64
	for _, ls := range levels {
		if ls.FromK >= m.K {
			wrote += ls.NextBytes
			read += ls.Bytes
		}
	}
	if w, r := st.BytesWritten-m.Stats.BytesWritten, st.BytesRead-m.Stats.BytesRead; w != wrote || r != read || wrote == 0 {
		t.Errorf("resumed run wrote %d and read %d bytes past the checkpoint; the uninterrupted run's levels from %d on hold %d and %d",
			w, r, m.K, wrote, read)
	}
}

// writeV3Fixture runs the checkpointed run the ckpt-v3 fixture holds over
// the graph in graphFile and replaces the fixture with what it left and
// the graph.
func writeV3Fixture(t *testing.T, graphFile, fixture string) {
	t.Helper()
	g := readGraph(t, graphFile)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Enumerate(g, enumcfg.Config{Ctx: ctx, Dir: dir, Checkpoint: true, ShardBytes: 64},
		core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) {
			if len(c) >= 5 {
				cancel()
			}
		})})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fixture run: %v, want a cancellation", err)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Owner = Owner{Host: "fixture", PID: 1, WorkerID: "ooc"}
	if err := WriteManifest(dir, m, true); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(fixture); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(fixture, 0o755); err != nil {
		t.Fatal(err)
	}
	files := dirBytes(t, dir)
	if files["graph.el"], err = os.ReadFile(graphFile); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(fixture, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// copyDir copies the files of src into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range dirBytes(t, src) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// dirBytes returns every file of dir by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// readGraph reads an edge-list file.
func readGraph(t *testing.T, path string) *graph.Graph {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunCodecSteadyStateAllocs pins the run write loop, the record read
// loop and the frame read at zero allocations once their buffers have
// grown.
func TestRunCodecSteadyStateAllocs(t *testing.T) {
	const k, runs, perRun = 6, 400, 5
	prefix := []uint32{1, 2, 3, 4, 0}
	tails := []uint32{0, 0, 0, 0, 0}
	var lw *LevelWriter
	next := uint32(10)
	writeOne := func() {
		// Sorted by construction: the last prefix vertex only grows.
		prefix[4] = next
		for i := range tails {
			tails[i] = next + 1 + uint32(i)
		}
		next += 2
		if err := lw.WriteRun(prefix, tails); err != nil {
			t.Fatal(err)
		}
	}
	metas, files := writeShards(t, k, 1<<30, func(w *LevelWriter) error {
		lw = w
		writeOne() // opens the run, grows the run and record buffers
		writeOne()
		if allocs := testing.AllocsPerRun(runs-3, writeOne); allocs != 0 {
			t.Errorf("WriteRun allocates %.1f objects per run", allocs)
		}
		return nil
	})
	if len(files) != 1 || metas[0].Runs != runs || metas[0].Records != runs*perRun {
		t.Fatalf("wrote %d shards, %+v", len(files), metas)
	}

	r, err := OpenShardBytes(files[0], metas[0], k, 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]uint32, k)
	readOne := func() {
		if err := r.Next(rec); err != nil {
			t.Fatal(err)
		}
	}
	readOne() // reads the first frames into a fresh buffer
	if allocs := testing.AllocsPerRun(runs*perRun-2, readOne); allocs != 0 {
		t.Errorf("Next allocates %.1f objects per record", allocs)
	}
	if err := r.Next(rec); err != io.EOF {
		t.Errorf("read every record, then %v", err)
	}

	// Frame after frame into one buffer: the decode-ahead loop.
	var frames [][]byte
	for i := uint32(0); i < runs; i++ {
		frames = append(frames, frame(hdr(0, 2), 2*i, 2*i+1, 2*i+2, 2*i+3))
	}
	data := shardFile(3, frames...)
	fr, err := OpenShardBytes(data, ShardMeta{Path: "frames", Records: 2 * runs, Bytes: int64(len(data))}, 3, 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 8)
	blocks := 0
	readFrame := func() {
		blk, _, err := fr.block(buf)
		if err != nil || len(blk.Words()) == 0 {
			t.Fatalf("frame %d: %v", blocks, err)
		}
		blocks++
	}
	if allocs := testing.AllocsPerRun(runs-1, readFrame); allocs != 0 {
		t.Errorf("a frame read allocates %.1f objects", allocs)
	}
}
