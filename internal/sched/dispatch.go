package sched

import (
	"fmt"
	"sync"
)

// DefaultChunksPerWorker is the dispatch granularity: each level is cut
// into roughly workers * DefaultChunksPerWorker chunks by estimated load,
// small enough to absorb estimation error dynamically, large enough that
// dispatch locking stays off the profile.
const DefaultChunksPerWorker = 8

// ChunkGrain returns the per-chunk load target for dispatching `loads`
// across `workers` threads at the given oversubscription factor
// (chunksPerWorker <= 0 selects DefaultChunksPerWorker).
func ChunkGrain(loads []int64, workers, chunksPerWorker int) int64 {
	if chunksPerWorker <= 0 {
		chunksPerWorker = DefaultChunksPerWorker
	}
	var total int64
	for _, l := range loads {
		total += l
	}
	grain := total / int64(workers*chunksPerWorker)
	if grain < 1 {
		grain = 1
	}
	return grain
}

// Chunk is one batch of item indices handed to a worker by a Dispatcher.
type Chunk struct {
	Items []int
	// Stolen marks a chunk taken from another worker's queue: its items
	// are processed with remote-memory affinity cost and count as
	// scheduler transfers.
	Stolen bool
}

// Dispatcher hands a level's items to a level's workers dynamically,
// replacing the one-static-assignment-per-level model: workers pull
// chunks as they finish previous ones, so load-estimation error and
// skewed item costs are absorbed within the level instead of stretching
// the level barrier.
//
// Two modes mirror the static strategies:
//
//   - Contiguous (NewContiguousDispatcher): a single queue in canonical
//     item order; any worker pulls the next contiguous chunk.  Pure
//     dynamic self-scheduling, no ownership.
//   - Affinity (NewAffinityDispatcher): per-worker queues seeded by
//     creator ownership.  A worker drains its own queue first and steals
//     from the heaviest backlog only while that backlog exceeds the
//     Policy threshold — the paper's transfer rule applied continuously
//     instead of once per level.
//
// Dispatcher is safe for concurrent use by the workers of one level.
type Dispatcher struct {
	mu        sync.Mutex
	loads     []int64
	grain     int64
	affinity  bool
	policy    Policy
	queues    [][]int // per worker (affinity) or queues[0] (contiguous)
	remaining []int64 // per-queue pending load
	workers   int
	transfers int
	chunks    int
}

// NewContiguousDispatcher dispatches items 0..len(loads)-1 in canonical
// order as contiguous chunks of roughly `grain` load.
func NewContiguousDispatcher(loads []int64, workers int, grain int64) *Dispatcher {
	if workers < 1 {
		panic(fmt.Sprintf("sched: %d workers", workers))
	}
	if grain < 1 {
		grain = 1
	}
	d := &Dispatcher{
		loads:     loads,
		grain:     grain,
		workers:   workers,
		queues:    make([][]int, 1),
		remaining: make([]int64, 1),
	}
	d.queues[0] = identity(len(loads))
	d.remaining[0] = sum(loads)
	return d
}

// NewAffinityDispatcher dispatches each item to its creator worker
// (homes), with threshold stealing governed by policy.  len(homes) must
// equal len(loads) and every home must lie in [0, workers).
func NewAffinityDispatcher(loads []int64, homes []int32, workers int, policy Policy, grain int64) *Dispatcher {
	if workers < 1 {
		panic(fmt.Sprintf("sched: %d workers", workers))
	}
	if len(homes) != len(loads) {
		panic(fmt.Sprintf("sched: %d homes for %d loads", len(homes), len(loads)))
	}
	if grain < 1 {
		grain = 1
	}
	d := &Dispatcher{
		loads:     loads,
		grain:     grain,
		affinity:  true,
		policy:    policy,
		workers:   workers,
		queues:    make([][]int, workers),
		remaining: make([]int64, workers),
	}
	for i, h := range homes {
		if int(h) < 0 || int(h) >= workers {
			panic(fmt.Sprintf("sched: item %d home %d out of [0,%d)", i, h, workers))
		}
		d.queues[h] = append(d.queues[h], i)
		d.remaining[h] += loads[i]
	}
	return d
}

// Next returns the next chunk for `worker`, or ok=false when no work
// remains that this worker may take (the level is over for it).  In
// affinity mode an idle worker whose own queue is drained steals from the
// heaviest backlog only while that backlog exceeds the policy threshold;
// below it, residual imbalance is cheaper to finish locally than to move.
func (d *Dispatcher) Next(worker int) (Chunk, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.affinity {
		return d.popFront(0, false)
	}
	if worker < 0 || worker >= d.workers {
		panic(fmt.Sprintf("sched: worker %d out of [0,%d)", worker, d.workers))
	}
	if len(d.queues[worker]) > 0 {
		return d.popFront(worker, false)
	}
	victim := -1
	for q := range d.queues {
		if len(d.queues[q]) == 0 {
			continue
		}
		if victim == -1 || d.remaining[q] > d.remaining[victim] {
			victim = q
		}
	}
	if victim == -1 || float64(d.remaining[victim]) <= d.stealTolerance() {
		return Chunk{}, false
	}
	return d.popBack(victim, true)
}

// stealTolerance is the continuous form of Policy.Rebalance's threshold:
// the backlog gap worth a remote transfer, derived from the mean pending
// load.  Callers hold d.mu.
func (d *Dispatcher) stealTolerance() float64 {
	var total int64
	for _, r := range d.remaining {
		total += r
	}
	return d.policy.tolerance(float64(total) / float64(d.workers))
}

// popFront takes a chunk of at least grain load from the head of queue q.
func (d *Dispatcher) popFront(q int, stolen bool) (Chunk, bool) {
	ids := d.queues[q]
	if len(ids) == 0 {
		return Chunk{}, false
	}
	take, load := 0, int64(0)
	for take < len(ids) && load < d.grain {
		load += d.loads[ids[take]]
		take++
	}
	c := Chunk{Items: ids[:take:take], Stolen: stolen}
	d.queues[q] = ids[take:]
	d.remaining[q] -= load
	d.chunks++
	if stolen {
		d.transfers += take
	}
	return c, true
}

// popBack takes a chunk from the tail of queue q — the items farthest
// from where the owner is currently working, the classic steal end.
func (d *Dispatcher) popBack(q int, stolen bool) (Chunk, bool) {
	ids := d.queues[q]
	if len(ids) == 0 {
		return Chunk{}, false
	}
	take, load := 0, int64(0)
	for take < len(ids) && load < d.grain {
		load += d.loads[ids[len(ids)-1-take]]
		take++
	}
	cut := len(ids) - take
	c := Chunk{Items: ids[cut:len(ids):len(ids)], Stolen: stolen}
	d.queues[q] = ids[:cut]
	d.remaining[q] -= load
	d.chunks++
	if stolen {
		d.transfers += take
	}
	return c, true
}

// Transfers returns the number of items dispatched to a non-home worker
// so far (always 0 in contiguous mode).
func (d *Dispatcher) Transfers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.transfers
}

// Chunks returns the number of chunks handed out so far.
func (d *Dispatcher) Chunks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.chunks
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func sum(loads []int64) int64 {
	var t int64
	for _, l := range loads {
		t += l
	}
	return t
}
