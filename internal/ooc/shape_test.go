package ooc

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// TestPipelineShapesAgree: a shard's join is one function of the shard,
// whatever shape shapeFor gives its pipeline — unbudgeted (four blocks
// in flight), a middle share (two) and the smallest (one buffer of 2 KiB,
// every stage waiting for the next).  Every level of two graphs is
// written as one shard and joined at each shape, by one Joiner a shape
// kept from level to level (so each admits what the others admit, in the
// same order), and each join must write the same output bytes, count the same maximal and
// dropped cliques and the same Cost, and buffer the same emissions as the
// unbudgeted one, with the governor back where it was.  On the hub graph
// p0 = 0 has 159 neighbours, a universe of three words a row, and its
// edge-level record's admissions — N(p0) and a row of three words for
// each tail, built by the record — take more than the smallest buffer
// holds: its frame makes a block alone, its admissions past the buffer.
func TestPipelineShapesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(451))
	hub := graph.RandomGNP(rng, 160, 0.2)
	for v := 1; v < hub.N(); v++ {
		hub.AddEdge(0, v)
	}
	corpus := map[string]*graph.Graph{
		"planted": graph.PlantedGraph(rng, 100, []graph.PlantedCliqueSpec{{Size: 11}, {Size: 7, Overlap: 3}, {Size: 6}}, 1200),
		"hub":     hub,
	}
	const middle = 96 << 10
	shapes := []int64{0, middle, minBuf}
	if sh := shapeFor(middle); sh.depth != 2 {
		t.Fatalf("the middle share runs at depth %d, want 2", sh.depth)
	}
	if sh := shapeFor(minBuf); sh.depth != 1 || 8*3*(hub.Degree(0)) <= 4*sh.words {
		t.Fatalf("the smallest share runs at depth %d in %d words: no room to overflow", sh.depth, sh.words)
	}
	for name, g := range corpus {
		t.Run(name, func(t *testing.T) {
			const entry = 1234
			gov := membudget.New(0)
			gov.Charge(entry)
			joiners := make([]*Joiner, len(shapes))
			for i := range joiners {
				joiners[i] = newJoiner(g, shapes[i])
				joiners[i].b.Gov = gov
				gov.Charge(joiners[i].ScratchBytes())
			}
			b := core.NewBuilder(g)
			lvl, _, err := core.Seed(context.Background(), g, 2, 1, false, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for lvl.Sublists() > 0 {
				dir, in := levelShard(t, lvl)
				var want shapeRun
				for i, buf := range shapes {
					got := joinAtShape(t, joiners[i], dir, in, lvl.K, buf, gov)
					if i == 0 {
						want = got
						continue
					}
					if !slices.Equal(got.bytes, want.bytes) {
						t.Errorf("level %d, share %d: %d output bytes differ from the unbudgeted join's %d", lvl.K, buf, len(got.bytes), len(want.bytes))
					}
					if got.st.Maximal != want.st.Maximal || got.st.Dropped != want.st.Dropped || got.st.Cost != want.st.Cost {
						t.Errorf("level %d, share %d: maximal %d dropped %d cost %+v, unbudgeted %d %d %+v", lvl.K, buf,
							got.st.Maximal, got.st.Dropped, got.st.Cost, want.st.Maximal, want.st.Dropped, want.st.Cost)
					}
					if !slices.Equal(got.st.EmitVerts, want.st.EmitVerts) || !slices.Equal(got.st.EmitOff, want.st.EmitOff) {
						t.Errorf("level %d, share %d: the emission arena differs from the unbudgeted join's", lvl.K, buf)
					}
				}
				lvl, _ = core.Step(g, lvl, nil, b)
			}
			for _, j := range joiners {
				gov.Release(j.ScratchBytes())
			}
			if gov.Used() != entry {
				t.Errorf("governor at %d after the joins, entered at %d", gov.Used(), entry)
			}
		})
	}
}

// TestShardCostIsTheShards: what a shard join counts is a function of
// the shard alone.  Nothing resets the prefix memo between shards: a
// shard starts a run (lcp 0), which rebuilds from row 0, and every later
// record reuses only the rows below its stored lcp, so what the joiner
// mapped before is never read.  One Joiner joins every level's shard of
// a planted graph twice in a row — the second join starts where the
// first left the memo, at the shard's own last prefix — and both joins
// must count the same Cost.
func TestShardCostIsTheShards(t *testing.T) {
	rng := rand.New(rand.NewSource(452))
	g := graph.PlantedGraph(rng, 100, []graph.PlantedCliqueSpec{{Size: 11}, {Size: 7, Overlap: 3}, {Size: 6}}, 1200)
	gov := membudget.New(0)
	j := NewJoiner(g)
	j.b.Gov = gov
	gov.Charge(j.ScratchBytes())
	b := core.NewBuilder(g)
	lvl, _, err := core.Seed(context.Background(), g, 2, 1, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	levels := 0
	for ; lvl.Sublists() > 0; levels++ {
		dir, in := levelShard(t, lvl)
		first := joinAtShape(t, j, dir, in, lvl.K, 0, gov)
		again := joinAtShape(t, j, dir, in, lvl.K, 0, gov)
		if first.st.Cost != again.st.Cost {
			t.Errorf("level %d: the shard's first join counts %+v, the same joiner's second %+v", lvl.K, first.st.Cost, again.st.Cost)
		}
		lvl, _ = core.Step(g, lvl, nil, b)
	}
	if levels < 8 {
		t.Fatalf("fixture too small: %d levels", levels)
	}
	gov.Release(j.ScratchBytes())
}

// shapeRun is what one shard join produced: its statistics and its
// output files' bytes, in order.
type shapeRun struct {
	st    JoinStats
	bytes []byte
}

// levelShard writes an in-memory level as one shard file in a directory
// of its own.
func levelShard(t *testing.T, lvl *core.Level) (string, ShardMeta) {
	t.Helper()
	dir, seq := t.TempDir(), 0
	shards, err := WriteLevel(dir, lvl.K, false, 1<<30, nil, shardNamer(&seq, lvl.K), noAccount,
		func(write func(prefix, tails []uint32) error) error {
			for s := range lvl.All() {
				if err := write(s.Prefix, s.Tails); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil || len(shards) != 1 {
		t.Fatalf("writing level %d: %v (%d shards)", lvl.K, err, len(shards))
	}
	return dir, shards[0]
}

// joinAtShape joins the shard in dir through j's pipeline, made at the
// share buf, its output beside it, and reads the output back; beside what the
// joiner's scratch grew by, the governor must hold no more afterwards
// than before.
func joinAtShape(t *testing.T, j *Joiner, dir string, in ShardMeta, k int, buf int64, gov *membudget.Governor) shapeRun {
	t.Helper()
	before, seq := gov.Used()-j.ScratchBytes(), 0
	res, err := j.Join(context.Background(), &ShardJob{
		Dir: dir, K: k, In: in, Target: 4 << 10, Collect: true, Gov: gov,
		NewShard: func() (string, error) {
			seq++
			return ShardFileName(k+1, fmt.Sprintf("buf%d-%06d", buf, seq)), nil
		},
		OnWrite: noAccount,
	})
	if err != nil {
		t.Fatalf("level %d, share %d: %v", k, buf, err)
	}
	if held := gov.Used() - j.ScratchBytes(); held != before {
		t.Fatalf("level %d, share %d: governor at %d beside the scratch after the join, %d before", k, buf, held, before)
	}
	run := shapeRun{st: res.JoinStats}
	for _, m := range res.Out {
		data, err := os.ReadFile(filepath.Join(dir, m.Path))
		if err != nil {
			t.Fatal(err)
		}
		run.bytes = append(run.bytes, data...)
	}
	return run
}
