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
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/testgraph"
)

// pipelineFault is one way a level's pipeline can be cut short: hooks on
// the shard source and on the output files' names, and the error the
// level must end with.
type pipelineFault struct {
	name string
	// onNext runs as decode-ahead asks for shard i; onShard as
	// write-behind names output file i (both counted from 1) and returns
	// the name to use instead, or an error.
	onNext  func(i int, cancel context.CancelFunc)
	onShard func(i int, name string, cancel context.CancelFunc) (string, error)
	want    error
}

// TestPipelineFaults cuts a level's three-stage join short in each stage
// — cancellation while decode-ahead is reading, cancellation while
// write-behind is writing, a file-naming hook that fails, a write that
// fails — at the full queue depth and at depth one, and requires every
// time an error that says why, the governor back at its entry value and
// no goroutine left behind.  The complete level is then joined again from
// shards of several sizes above the smallest window, which must all be
// read through the one window the joiner already holds.
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
		{name: "cancel-in-decode-ahead", want: context.Canceled,
			onNext: func(i int, cancel context.CancelFunc) {
				if i == 3 {
					cancel()
				}
			}},
		{name: "cancel-in-write-behind", want: context.Canceled,
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
				j := NewJoiner(g)
				j.b.Gov = gov
				gov.Charge(j.ScratchBytes())
				in, asked, named, delivered := shards, 0, 0, 0
				next := func() (ShardMeta, int, bool) {
					if asked == len(in) {
						return ShardMeta{}, 0, false
					}
					asked++
					if f.onNext != nil {
						f.onNext(asked, cancel)
					}
					return in[asked-1], asked - 1, true
				}
				deliver := func(int, ShardResult) { delivered++ }
				outSeq := 0
				newShard := shardNamer(&outSeq, lvl.K+1)
				job := &ShardJob{
					Dir: dir, K: lvl.K, Target: 256, Collect: true, Gov: gov, Buf: buf,
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
				read, err := j.run(ctx, job, next, deliver)
				got := delivered
				if f.want == nil && err == nil {
					br := j.br
					in, asked, delivered = wide, 0, 0
					if _, werr := j.run(ctx, job, next, deliver); werr != nil || delivered != len(wide) {
						t.Errorf("wide shards: err %v, %d of %d delivered", werr, delivered, len(wide))
					}
					if j.br != br {
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

// TestTurnWaitsForTheGenerationBefore pins the arena hand-off: once the
// join has Reset after a batch, turn must not let it Reset again while
// the writer still holds that batch, whose chunks the second Reset would
// recycle under the writer.
func TestTurnWaitsForTheGenerationBefore(t *testing.T) {
	// 300 one-tail runs of 4 words: a frame ends inside the batch, so the
	// writer names a file while it holds it.
	var p core.Packer
	p.Reset(3, make([]uint32, 2048))
	for v := uint32(0); v < 300; v++ {
		p.Add([]uint32{3 * v, 3*v + 1}, 0, []uint32{3*v + 2})
	}
	blk := p.Block()
	hold, named := make(chan struct{}), make(chan struct{}, 1)
	seq := 0
	lw := NewLevelWriter(t.TempDir(), 3, false, 1<<30, nil, func() (string, error) {
		if seq++; seq == 1 {
			named <- struct{}{}
			<-hold
		}
		return ShardFileName(3, fmt.Sprintf("%06d", seq)), nil
	}, noAccount)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	wb := newWriteBehind(ctx, pipeShape{depth: 4, gen: 1}, nil, lw)
	go wb.run(ctx, cancel, func(int, ShardResult) {})
	if err := wb.write([]core.Block{blk}); err != nil {
		t.Fatal(err)
	}
	if reset, err := wb.turn(); !reset || err != nil {
		t.Fatalf("first turn: reset %v, err %v; the one batch out is this generation's", reset, err)
	}
	<-named // the writer holds the first batch
	if err := wb.write([]core.Block{blk}); err != nil {
		t.Fatal(err)
	}
	turned := make(chan bool, 1)
	go func() {
		reset, _ := wb.turn()
		turned <- reset
	}()
	select {
	case <-turned:
		t.Fatal("turn returned while the writer held a batch of the generation before")
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	if !<-turned {
		t.Error("turn did not report a reset once the writer was done with the batch before")
	}
	close(wb.in)
	<-wb.done
}
