package ooc

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
)

// sinkOutput is what one way of joining a level produced: the maximal
// cliques in emission order and the surviving (prefix, v, u) records in
// output order.
type sinkOutput struct {
	maximal []string
	records [][]uint32
}

func (o *sinkOutput) Emit(c clique.Clique) { o.maximal = append(o.maximal, c.Key()) }

// levelRecordsOf flattens an in-memory level into its sorted records.
func levelRecordsOf(lvl *core.Level) [][]uint32 {
	var recs [][]uint32
	for s := range lvl.All() {
		for _, t := range s.Tails {
			recs = append(recs, append(slices.Clone(s.Prefix), t))
		}
	}
	return recs
}

// shardRecords decodes a level's shard files back into records.
func shardRecords(t *testing.T, dir string, metas []ShardMeta, k, n int) [][]uint32 {
	t.Helper()
	var recs [][]uint32
	for _, m := range metas {
		r, err := OpenShard(dir, m, k, n, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]uint32, k)
		for {
			if err := r.Next(rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, slices.Clone(rec))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// shardNamer names shard files of level k from a shared sequence.
func shardNamer(seq *int, k int) func() (string, error) {
	return func() (string, error) {
		*seq++
		return ShardFileName(k, fmt.Sprintf("%06d", *seq)), nil
	}
}

func noAccount(enc, raw int64) error { return nil }

// joinViaBlocks joins the level with the kernel and hands its sealed
// output a chunk at a time to a level writer, as the join writes it,
// and decodes the shard files back into records.
func joinViaBlocks(t *testing.T, g graph.Interface, b *core.Builder, lvl *core.Level) sinkOutput {
	t.Helper()
	dir, seq := t.TempDir(), 0
	var out sinkOutput
	lw := NewLevelWriter(dir, lvl.K+1, false, 256, nil, shardNamer(&seq, lvl.K+1), noAccount)
	b.Reset()
	flush := func() {
		if err := lw.writeBlocks(b.Since(0)); err != nil {
			t.Fatal(err)
		}
		b.Reset()
	}
	for s := range lvl.All() {
		b.ProcessSubList(s, &out)
		if b.Mark() > 0 {
			flush()
		}
	}
	flush()
	metas, err := lw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out.records = shardRecords(t, dir, metas, lvl.K+1, g.N())
	return out
}

// joinViaShards encodes the level as shard files (a small target, so a
// level spans several), joins each through Joiner.Join — the two-stage
// pipeline, in blocks of a few hundred bytes so a shard spans several —
// and decodes the output shards back into records.
func joinViaShards(t *testing.T, g graph.Interface, lvl *core.Level) sinkOutput {
	t.Helper()
	dir, seq := t.TempDir(), 0
	in, err := WriteLevel(dir, lvl.K, false, 256, nil, shardNamer(&seq, lvl.K), noAccount,
		func(write func(prefix, tails []uint32) error) error {
			for s := range lvl.All() {
				if err := write(s.Prefix, s.Tails); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var out sinkOutput
	j := newJoiner(g, minBuf)
	for _, sh := range in {
		res, err := j.Join(context.Background(), &ShardJob{
			Dir: dir, K: lvl.K, In: sh, Target: 256, Collect: true,
			NewShard: shardNamer(&seq, lvl.K+1), OnWrite: noAccount,
		})
		if err != nil {
			t.Fatal(err)
		}
		start := int32(0)
		for _, end := range res.EmitOff {
			out.Emit(clique.Clique(res.EmitVerts[start:end]))
			start = end
		}
		if int64(len(res.EmitOff)) != res.Maximal {
			t.Fatalf("shard %s: %d emissions, Maximal %d", sh.Path, len(res.EmitOff), res.Maximal)
		}
		out.records = append(out.records, shardRecords(t, dir, res.Out, lvl.K+1, g.N())...)
	}
	return out
}

// TestOneKernelThreeSinks is the differential pin on "one join": every
// level of every graph × representation is joined three ways — in memory
// with the Builder retaining sub-lists, with the Builder handing a chunk
// of sealed blocks at a time to a level writer (the join's unit of writing),
// and by the Joiner's pipeline over the level's encoded shards — and all
// three must report the same maximal cliques in the same order and keep
// the same surviving candidate records.
func TestOneKernelThreeSinks(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	corpus := map[string]*graph.Graph{
		"planted":  graph.PlantedGraph(rng, 70, []graph.PlantedCliqueSpec{{Size: 9}, {Size: 6, Overlap: 2}}, 120),
		"gnp":      graph.RandomGNP(rng, 40, 0.3),
		"complete": graph.RandomGNP(rng, 9, 1),
		"edgeless": graph.New(5),
	}
	for name, dense := range corpus {
		for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
			g, err := graph.Convert(dense, rep)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/%v", name, rep), func(t *testing.T) {
				pool := bitset.NewPool(g.N())
				keepB := core.NewBuilderMode(g, core.CNRecompute, pool)
				blockB := core.NewBuilderMode(g, core.CNRecompute, pool)
				// Recompute mode leaves a consumed level intact, so the
				// same level feeds all three joins.
				lvl, _, _ := core.Seed(context.Background(), g, 2, core.CNRecompute, 1, false, nil, nil)
				for len(lvl.Sub) > 0 {
					var keep sinkOutput
					next, _ := core.Step(g, lvl, &keep, keepB)
					keep.records = levelRecordsOf(next)

					blocks := joinViaBlocks(t, g, blockB, lvl)
					shards := joinViaShards(t, g, lvl)
					for _, other := range []struct {
						name string
						out  sinkOutput
					}{{"blocks", blocks}, {"shards", shards}} {
						if !slices.Equal(other.out.maximal, keep.maximal) {
							t.Fatalf("level %d: %s emitted %d maximal cliques %v, keep %d %v",
								lvl.K, other.name, len(other.out.maximal), other.out.maximal, len(keep.maximal), keep.maximal)
						}
						if !slices.EqualFunc(other.out.records, keep.records, slices.Equal[[]uint32]) {
							t.Fatalf("level %d: %s kept %d records, keep %d — survivors differ",
								lvl.K, other.name, len(other.out.records), len(keep.records))
						}
					}
					lvl = next
				}
			})
		}
	}
}

// TestJoinRejectsRecordsOutsideTheirUniverse: a shard file is outside
// input, and a well-formed record in one can name a prefix vertex or a
// tail that is no neighbour of its prefix's first vertex p0 — a record
// no join writes.  The joiner must fail that shard with an error, not
// index the kernel's universe with it.  The good record before the bad
// one joins as usual; the shard as a whole fails.
func TestJoinRejectsRecordsOutsideTheirUniverse(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 4}, {0, 5}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}, {3, 5}} {
		g.AddEdge(e[0], e[1])
	}
	for _, c := range []struct {
		name string
		runs []prefixRun
	}{
		{"tail", []prefixRun{{[]uint32{0, 1}, []uint32{2, 3}}}},                                     // 3 is no neighbour of 0
		{"prefix", []prefixRun{{[]uint32{0, 1}, []uint32{2, 4}}, {[]uint32{0, 3}, []uint32{4, 5}}}}, // nor here
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, seq := t.TempDir(), 0
			in, err := WriteLevel(dir, 3, false, 1<<20, nil, shardNamer(&seq, 3), noAccount,
				func(write func(prefix, tails []uint32) error) error {
					for _, r := range c.runs {
						if err := write(r.prefix, r.tails); err != nil {
							return err
						}
					}
					return nil
				})
			if err != nil || len(in) != 1 {
				t.Fatalf("writing the shard: %v (%d shards)", err, len(in))
			}
			res, err := newJoiner(g, minBuf).Join(context.Background(), &ShardJob{
				Dir: dir, K: 3, In: in[0], Target: 256, Collect: true,
				NewShard: shardNamer(&seq, 4), OnWrite: noAccount,
			})
			if err == nil || !strings.Contains(err.Error(), "outside N(0)") {
				t.Fatalf("joined a shard with a record outside N(0): err %v, result %+v", err, res)
			}
		})
	}
}
