package ooc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/testgraph"
)

// pipelineFault is one way a level's pipeline can be cut short: a cancel
// after some deliveries, a hook on the output files' names, and the
// error the level must end with.
type pipelineFault struct {
	name string
	// cancelAt, when set, is the deliveries after which the level is
	// canceled, while decode-ahead reads the shards after them; onShard
	// runs as the join names output file i (counted from 1) and returns
	// the name to use instead, or an error.
	cancelAt int
	onShard  func(i int, name string, cancel context.CancelFunc) (string, error)
	want     error
}

// TestPipelineFaults cuts a level's two-stage join short in each stage
// — cancellation while decode-ahead reads ahead, cancellation while the
// join is writing, a file-naming hook that fails, a write that fails —
// at the full queue depth and at depth one, and requires every time an
// error that says why, the governor back at its entry value and no
// goroutine left behind.  Every result must arrive after its files are
// closed: each file it lists is on disk at its recorded size.  The
// complete level is then joined again from shards of several sizes
// above the smallest window, which must all be read through the one
// window the joiner already holds.
func TestPipelineFaults(t *testing.T) {
	// Background edges enough for the level to span shards larger than
	// the smallest window.
	g := graph.PlantedGraph(rand.New(rand.NewSource(311)), 100, []graph.PlantedCliqueSpec{
		{Size: 11}, {Size: 7, Overlap: 3}, {Size: 6},
	}, 1200)
	lvl, _, _ := core.Seed(context.Background(), g, 2, core.CNRecompute, 1, false, nil, nil)
	b := core.NewBuilderMode(g, core.CNRecompute, bitset.NewPool(g.N()))
	for { // to the level with the most cliques
		next, _ := core.Step(g, lvl, nil, b)
		if next.Cliques() < lvl.Cliques() {
			break
		}
		lvl = next
	}
	dir, seq := t.TempDir(), 0
	shardsOf := func(target int64) []ShardMeta {
		shards, err := WriteLevel(dir, lvl.K, false, target, nil, shardNamer(&seq, lvl.K), noAccount,
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
		return shards
	}
	shards, wide := shardsOf(256), shardsOf(3*minBuf/2)
	if len(shards) < 6 {
		t.Fatalf("the level spans %d shards; the faults need more", len(shards))
	}
	sizes := map[int64]bool{}
	for _, s := range wide {
		if s.Bytes > minBuf {
			sizes[s.Bytes] = true
		}
	}
	if len(sizes) < 2 {
		t.Fatalf("%d sizes above %d bytes among the level's %d wide shards; the window check needs two", len(sizes), minBuf, len(wide))
	}
	full, err := filepath.Rel(dir, "/dev/full")
	if _, serr := os.Stat("/dev/full"); err != nil || serr != nil {
		full = "" // no device that fails every write
	}

	faults := []pipelineFault{
		{name: "complete"},
		{name: "cancel-in-decode-ahead", want: context.Canceled, cancelAt: 3},
		{name: "cancel-while-writing", want: context.Canceled,
			onShard: func(i int, name string, cancel context.CancelFunc) (string, error) {
				if i == 3 {
					cancel()
				}
				return name, nil
			}},
		{name: "naming-hook-fails", want: errInjected,
			onShard: func(i int, name string, _ context.CancelFunc) (string, error) {
				if i == 3 {
					return "", errInjected
				}
				return name, nil
			}},
	}
	if full != "" {
		faults = append(faults, pipelineFault{name: "write-fails", want: syscall.ENOSPC,
			onShard: func(i int, name string, _ context.CancelFunc) (string, error) {
				if i == 3 {
					return full, nil
				}
				return name, nil
			}})
	}
	for _, f := range faults {
		for _, buf := range []int64{0, minBuf} {
			t.Run(fmt.Sprintf("%s/buf=%d", f.name, buf), func(t *testing.T) {
				const entry = 4321
				gov := membudget.New(0)
				gov.Charge(entry)
				check := testgraph.NoLeaks(t, gov)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				j := newJoiner(g, buf)
				j.b.Gov = gov
				gov.Charge(j.ScratchBytes())
				named, delivered := 0, 0
				deliver := func(_ int, res ShardResult) {
					if err := verifyShards(dir, res.Out); err != nil {
						t.Errorf("a result arrived before its files were closed: %v", err)
					}
					if delivered++; delivered == f.cancelAt {
						cancel()
					}
				}
				outSeq := 0
				newShard := shardNamer(&outSeq, lvl.K+1)
				job := &ShardJob{
					Dir: dir, K: lvl.K, Target: 256, Collect: true, Gov: gov,
					NewShard: func() (string, error) {
						name, _ := newShard()
						named++
						if f.onShard != nil {
							return f.onShard(named, name, cancel)
						}
						return name, nil
					},
					OnWrite: noAccount,
				}
				read, err := j.run(ctx, job, &shardList{shards: shards}, deliver)
				got := delivered
				if f.want == nil && err == nil {
					br := j.dec.br
					delivered = 0
					if _, werr := j.run(ctx, job, &shardList{shards: wide}, deliver); werr != nil || delivered != len(wide) {
						t.Errorf("wide shards: err %v, %d of %d delivered", werr, delivered, len(wide))
					}
					if j.dec.br != br {
						t.Error("shards of other sizes were read through a new window")
					}
				}
				gov.Release(j.ScratchBytes())
				switch {
				case f.want == nil && (err != nil || got != len(shards)):
					t.Fatalf("err %v, %d of %d shards delivered", err, got, len(shards))
				case f.want != nil && !errors.Is(err, f.want):
					t.Fatalf("err = %v, want %v", err, f.want)
				case f.want != nil && got == len(shards):
					t.Fatal("the level was cut short and still delivered every shard")
				case read == 0:
					t.Error("no bytes read reported")
				}
				check()
				if gov.Used() != entry {
					t.Errorf("governor at %d after the level, entered at %d", gov.Used(), entry)
				}
			})
		}
	}
}
