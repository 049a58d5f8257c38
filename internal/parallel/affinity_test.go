package parallel

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
)

// TestAffinityTransfersHappenUnderSkew pins the paper's transfer rule on
// the pool's own first level, with the skew injected instead of hoped for
// from the schedule: a graph with one giant clique seeds a level whose
// blocks, loads and creator homes are exactly what the pool's dispatcher
// is built from.  The worker holding the heaviest backlog takes one chunk
// and never comes back — a completion order a real run produces only by
// luck — while the others finish each chunk at once and ask again.  The
// threshold rule must move all of the stalled worker's queued work to
// them: a backlog nobody drains never falls under the tolerance.  Every
// block is handed out once, at home unless marked stolen.
func TestAffinityTransfersHappenUnderSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	g := graph.PlantedGraph(rng, 200, []graph.PlantedCliqueSpec{{Size: 14}}, 400)
	const workers = 4
	p, err := NewPool(g, Options{Workers: workers, Strategy: Affinity, Policy: sched.Policy{RelTolerance: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	lvl, homes, err := core.Seed(context.Background(), g, 2, workers, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	disp := p.dispatcher(lvl, homes)
	backlog := make([]int64, workers)
	for i, h := range homes {
		backlog[h] += p.loads[i]
	}
	slow := 0
	for w := range backlog {
		if backlog[w] > backlog[slow] {
			slow = w
		}
	}
	first, ok := disp.Next(slow)
	if !ok {
		t.Fatal("the heaviest worker has no work")
	}
	handed := make([]bool, len(homes))
	for _, i := range first.Items {
		handed[i] = true
	}
	moved := 0
	for asked := true; asked; {
		asked = false
		for w := 0; w < workers; w++ {
			if w == slow {
				continue
			}
			c, ok := disp.Next(w)
			if !ok {
				continue
			}
			asked = true
			for _, i := range c.Items {
				if handed[i] || (int(homes[i]) != w) != c.Stolen {
					t.Fatalf("worker %d got block %d (home %d, handed before: %v) in a chunk marked stolen=%v",
						w, i, homes[i], handed[i], c.Stolen)
				}
				handed[i] = true
				if int(homes[i]) == slow {
					moved++
				}
			}
		}
	}
	queued := 0
	for i, h := range homes {
		if !handed[i] {
			t.Fatalf("block %d (home %d) was never handed out", i, h)
		}
		if int(h) == slow {
			queued++
		}
	}
	if want := queued - len(first.Items); moved == 0 || moved != want || disp.Transfers() < moved {
		t.Errorf("worker %d stalled on a backlog of %v: %d of its %d queued blocks moved, the dispatcher counts %d transfers",
			slow, backlog, moved, want, disp.Transfers())
	}
}
