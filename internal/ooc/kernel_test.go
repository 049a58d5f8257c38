package ooc

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

func (o *sinkOutput) writeRun(prefix, tails []uint32) error {
	for _, t := range tails {
		o.records = append(o.records, append(slices.Clone(prefix), t))
	}
	return nil
}

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

// joinViaShards encodes the level as shard files (a small target, so a
// level spans several), joins each through Joiner.JoinShardBytes, and
// decodes the output shards back into records.
func joinViaShards(t *testing.T, g graph.Interface, lvl *core.Level, compress bool) sinkOutput {
	t.Helper()
	dir := t.TempDir()
	seq := 0
	name := func(k int) func() (string, error) {
		return func() (string, error) {
			seq++
			return ShardFileName(k, fmt.Sprintf("%06d", seq)), nil
		}
	}
	noAccount := func(enc, raw int64) error { return nil }
	in, err := WriteLevel(dir, lvl.K, compress, 256, nil, name(lvl.K), noAccount,
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
	j := NewJoiner(g)
	for _, sh := range in {
		data, err := os.ReadFile(filepath.Join(dir, sh.Path))
		if err != nil {
			t.Fatal(err)
		}
		lw := NewLevelWriter(dir, lvl.K+1, compress, 256, nil, name(lvl.K+1), noAccount)
		js, err := j.JoinShardBytes(context.Background(), data, sh, lvl.K, compress, lw, true)
		if err != nil {
			t.Fatal(err)
		}
		start := int32(0)
		for _, end := range js.EmitOff {
			out.Emit(clique.Clique(js.EmitVerts[start:end]))
			start = end
		}
		if int64(len(js.EmitOff)) != js.Maximal {
			t.Fatalf("shard %s: %d emissions, Maximal %d", sh.Path, len(js.EmitOff), js.Maximal)
		}
		metas, err := lw.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			r, err := OpenShard(dir, m, lvl.K+1, g.N(), compress, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := make([]uint32, lvl.K+1)
			for {
				if err := r.Next(rec); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				out.records = append(out.records, slices.Clone(rec))
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestOneKernelThreeSinks is the differential pin on "one join": every
// level of every graph × representation is joined three ways — in memory
// with the Builder retaining sub-lists, with the Builder in drain mode,
// and by the Joiner over the level's encoded shards — and all three must
// report the same maximal cliques in the same order and keep the same
// surviving candidate records.
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
				drainB := core.NewBuilderMode(g, core.CNRecompute, pool)
				// Recompute mode leaves a consumed level intact, so the
				// same level feeds all three joins.
				lvl := core.SeedFromEdgesMode(g, core.CNRecompute)
				for len(lvl.Sub) > 0 {
					var keep sinkOutput
					next, _ := core.Step(g, lvl, &keep, keepB)
					keep.records = levelRecordsOf(next)

					var drain sinkOutput
					drainB.Reset()
					drainB.Spill = drain.writeRun
					for s := range lvl.All() {
						drainB.ProcessSubList(s, &drain)
					}

					shards := joinViaShards(t, g, lvl, lvl.K%2 == 0)
					for _, other := range []struct {
						name string
						out  sinkOutput
					}{{"drain", drain}, {"shards", shards}} {
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
