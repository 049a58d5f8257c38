package ooc

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
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

// goldenCorpus is every 3-subset of seven vertices chosen so that gaps
// and vertices need one and two varint bytes: 35 sorted records in 15
// prefix runs.
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

// goldenShards are the shard files the record-at-a-time writer of the
// commit before the run codec produced for goldenCorpus, with a target
// small enough to split the level.
var goldenShards = []struct {
	compress bool
	target   int64
	records  []int64 // per shard
	shards   []string
}{
	{false, 128, []int64{12, 12, 11}, []string{
		"4f4f435301000300000000020000000300000000000000020000000900000000000000020000008c00000000000000020000008d00000000000000020000009001000000000000030000000900000000000000030000008c00000000000000030000008d00000000000000030000009001000000000000090000008c00000000000000090000008d000000000000000900000090010000",
		"4f4f4353010003000000008c0000008d000000000000008c00000090010000000000008d0000009001000002000000030000000900000002000000030000008c00000002000000030000008d00000002000000030000009001000002000000090000008c00000002000000090000008d000000020000000900000090010000020000008c0000008d000000020000008c00000090010000",
		"4f4f4353010003020000008d0000009001000003000000090000008c00000003000000090000008d000000030000000900000090010000030000008c0000008d000000030000008c00000090010000030000008d00000090010000090000008c0000008d000000090000008c00000090010000090000008d000000900100008c0000008d00000090010000",
	}},
	{true, 32, []int64{9, 10, 9, 6, 1}, []string{
		"4f4f4353010103000002010207028a01028b01028e03010306028901028a01028d03",
		"4f4f43530101030000098301028401028703018c0101028402018d01830200020106028901028a01028d03",
		"4f4f43530101030002078301028401028703018a0101028402018b0183020003068301028401028703",
		"4f4f43530101030003890101028402018a01830200098301010284020184018302",
		"4f4f4353010103008c01018302",
	}},
}

// writeShards writes a level through feed and returns the shard files'
// bytes in order.
func writeShards(t *testing.T, k int, compress bool, target int64, feed func(lw *LevelWriter) error) ([]ShardMeta, [][]byte) {
	t.Helper()
	dir := t.TempDir()
	seq := 0
	lw := NewLevelWriter(dir, k, compress, target, nil, func() (string, error) {
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

// TestFormatDidNotMove pins the on-disk bytes across the move from a
// record codec to a run codec: whole runs, and the same stream through
// the per-record Write adapter, must both reproduce the shard files the
// old writer produced — split points included.
func TestFormatDidNotMove(t *testing.T) {
	recs := goldenCorpus()
	for _, g := range goldenShards {
		byRun := func(lw *LevelWriter) error {
			for _, r := range runsOf(recs) {
				if err := lw.WriteRun(r.prefix, r.tails); err != nil {
					return err
				}
			}
			return nil
		}
		byRecord := func(lw *LevelWriter) error {
			for _, rec := range recs {
				if err := lw.Write(rec); err != nil {
					return err
				}
			}
			return nil
		}
		for name, feed := range map[string]func(*LevelWriter) error{"runs": byRun, "records": byRecord} {
			metas, files := writeShards(t, 3, g.compress, g.target, feed)
			if len(files) != len(g.shards) {
				t.Fatalf("compress=%v %s: %d shards, golden has %d", g.compress, name, len(files), len(g.shards))
			}
			var records, runs int64
			for i, data := range files {
				if got := hex.EncodeToString(data); got != g.shards[i] {
					t.Errorf("compress=%v %s: shard %d\n got %s\nwant %s", g.compress, name, i, got, g.shards[i])
				}
				records += metas[i].Records
				runs += metas[i].Runs
			}
			if records != int64(len(recs)) || runs != int64(len(runsOf(recs))) {
				t.Errorf("compress=%v %s: metas count %d records in %d runs, want %d in %d",
					g.compress, name, records, runs, len(recs), len(runsOf(recs)))
			}
		}
	}
}

// TestGoldenShardsDecode reads the old writer's files back through both
// reader entries and both read interfaces.
func TestGoldenShardsDecode(t *testing.T) {
	want := goldenCorpus()
	for _, g := range goldenShards {
		var byRun, byRecord [][]uint32
		for i, h := range g.shards {
			data, err := hex.DecodeString(h)
			if err != nil {
				t.Fatal(err)
			}
			meta := ShardMeta{Path: fmt.Sprintf("golden-%d", i), Bytes: int64(len(data)), Records: g.records[i]}
			r, err := OpenShardBytes(data, meta, 3, 401, g.compress)
			if err != nil {
				t.Fatal(err)
			}
			for {
				prefix, tails, err := r.NextRun()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, tail := range tails {
					byRun = append(byRun, append(slices.Clone(prefix), tail))
				}
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, meta.Path), data, 0o644); err != nil {
				t.Fatal(err)
			}
			fr, err := OpenShard(dir, meta, 3, 401, g.compress, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := make([]uint32, 3)
			for err = fr.Next(rec); err == nil; err = fr.Next(rec) {
				byRecord = append(byRecord, slices.Clone(rec))
			}
			if cerr := fr.Close(); err != io.EOF || cerr != nil {
				t.Fatalf("file reader: %v, close: %v", err, cerr)
			}
			if fr.BytesRead() != int64(len(data)) {
				t.Errorf("file reader pulled %d bytes of %d", fr.BytesRead(), len(data))
			}
		}
		for name, got := range map[string][][]uint32{"NextRun": byRun, "Next": byRecord} {
			if !slices.EqualFunc(got, want, slices.Equal[[]uint32]) {
				t.Errorf("compress=%v %s: decoded %d records, want the corpus's %d", g.compress, name, len(got), len(want))
			}
		}
	}
}

// TestResumeParentCheckpoint resumes a checkpoint directory written by
// the commit before the run codec (testdata/ckpt-parent: a compressed
// run killed while joining level 4) and requires the reference stream
// from that level on.
func TestResumeParentCheckpoint(t *testing.T) {
	src := filepath.Join("testdata", "ckpt-parent")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(filepath.Join(dir, "graph.el"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	var levels []core.LevelStats
	full, fullStats := orderedKeys(t, g, enumcfg.Config{OOCCompress: true, ShardBytes: 64},
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
	if st.Maximal != fullStats.Maximal {
		t.Errorf("resumed run counts %d maximal cliques, the uninterrupted run %d", st.Maximal, fullStats.Maximal)
	}
	// The fixture's levels below K are the older writer's; from K on the
	// resumed run moves exactly the bytes the uninterrupted run's records
	// say those levels hold.
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

// TestRunCodecSteadyStateAllocs pins the run write and run decode loops
// at zero allocations per run once their buffers have grown.
func TestRunCodecSteadyStateAllocs(t *testing.T) {
	const k, runs, perRun = 6, 400, 5
	for _, compress := range []bool{false, true} {
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
		metas, files := writeShards(t, k, compress, 1<<30, func(w *LevelWriter) error {
			lw = w
			writeOne() // opens the shard, grows the encode buffer
			if allocs := testing.AllocsPerRun(runs-2, writeOne); allocs != 0 {
				t.Errorf("compress=%v: WriteRun allocates %.1f objects per run", compress, allocs)
			}
			return nil
		})
		if len(files) != 1 || metas[0].Runs != runs || metas[0].Records != runs*perRun {
			t.Fatalf("compress=%v: wrote %d shards, %+v", compress, len(files), metas)
		}

		for name, open := range map[string]func() (*ShardReader, error){
			"bytes": func() (*ShardReader, error) { return OpenShardBytes(files[0], metas[0], k, 1<<20, compress) },
			"window": func() (*ShardReader, error) {
				// A one-record window: the refill path runs all the time.
				win := make([]byte, 0, maxVarint32*(k+1))
				return newShardReader(win, bytes.NewReader(files[0]), metas[0], k, 1<<20, compress)
			},
		} {
			r, err := open()
			if err != nil {
				t.Fatal(err)
			}
			decoded := 0
			readOne := func() {
				_, tails, err := r.NextRun()
				if err != nil {
					t.Fatal(err)
				}
				decoded += len(tails)
			}
			readOne()
			if allocs := testing.AllocsPerRun(runs-2, readOne); allocs != 0 {
				t.Errorf("compress=%v %s: NextRun allocates %.1f objects per run", compress, name, allocs)
			}
			if _, _, err := r.NextRun(); err != io.EOF || decoded != runs*perRun {
				t.Errorf("compress=%v %s: decoded %d records of %d, then %v", compress, name, decoded, runs*perRun, err)
			}
		}
	}
}
