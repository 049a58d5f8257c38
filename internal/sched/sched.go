// Package sched implements the centralized dynamic load balancing of the
// paper's multithreaded Clique Enumerator (Section 2.3, "Parallelism for
// shared-memory machines").
//
// The execution model is level-synchronous: a task scheduler assigns
// k-clique sub-lists to threads, threads generate (k+1)-cliques from
// their sub-lists independently (no communication), and at the level
// barrier the scheduler collects per-thread loads and transfers work from
// heavy to light threads when the imbalance exceeds a threshold derived
// from the total current load and each thread's deviation from the mean.
// Transfers pass addresses only — the data stays where it was created in
// the shared memory — which is why a transferred sub-list is processed
// with remote-memory access cost (tracked here, charged by the machine
// model in package simarch).
//
// The package is pure scheduling arithmetic over abstract load vectors,
// shared by the real goroutine backend (package parallel) and the
// simulated 256-processor Altix (package simarch).
package sched

import (
	"fmt"
	"math"
	"sort"
)

// Assignment maps each worker to the item indices it will process.
type Assignment [][]int

// Workers returns the number of workers in the assignment.
func (a Assignment) Workers() int { return len(a) }

// Items returns the total number of assigned items.
func (a Assignment) Items() int {
	n := 0
	for _, ids := range a {
		n += len(ids)
	}
	return n
}

// Totals returns each worker's summed load.
func (a Assignment) Totals(loads []int64) []int64 {
	totals := make([]int64, len(a))
	for w, ids := range a {
		for _, i := range ids {
			totals[w] += loads[i]
		}
	}
	return totals
}

// BalancedContiguous splits items 0..len(loads)-1 into p contiguous
// chunks with near-equal load (the scheduler's initial even division of
// all k-cliques).  Contiguity preserves canonical sub-list order inside
// each worker, so a merge in worker order keeps the enumeration's
// canonical output order.
func BalancedContiguous(loads []int64, p int) Assignment {
	if p < 1 {
		panic(fmt.Sprintf("sched: %d workers", p))
	}
	a := make(Assignment, p)
	n := len(loads)
	if n == 0 {
		return a
	}
	var total int64
	for _, l := range loads {
		total += l
	}
	// Walk items accumulating load; cut when the running chunk reaches
	// its fair share of the load that remained when the chunk started.
	w := 0
	var acc, done int64
	target := (total + int64(p) - 1) / int64(p)
	for i := 0; i < n; i++ {
		a[w] = append(a[w], i)
		acc += loads[i]
		done += loads[i]
		if acc >= target && w < p-1 && i < n-1 {
			w++
			acc = 0
			remainingWorkers := int64(p - w)
			target = (total - done + remainingWorkers - 1) / remainingWorkers
		}
	}
	return a
}

// ByHome groups items by their creating worker (affinity assignment):
// the no-transfer baseline where every thread keeps working on the
// sub-lists it generated.
func ByHome(homes []int32, p int) Assignment {
	a := make(Assignment, p)
	for i, h := range homes {
		if int(h) < 0 || int(h) >= p {
			panic(fmt.Sprintf("sched: item %d home %d out of [0,%d)", i, h, p))
		}
		a[h] = append(a[h], i)
	}
	return a
}

// Policy is the scheduler's transfer-decision rule.  A transfer from the
// heaviest to the lightest worker happens only while their load gap
// exceeds max(AbsFloor, RelTolerance * mean load) — the paper's threshold
// "determined based on the graph size, the total amount of current load,
// and differences of their loads from the average load".
type Policy struct {
	// RelTolerance is the allowed gap as a fraction of the mean worker
	// load.  The zero value uses DefaultRelTolerance.
	RelTolerance float64
	// AbsFloor is the minimum gap (in load units) worth transferring
	// over; transfers cost remote accesses, so tiny imbalances are kept.
	AbsFloor int64
}

// DefaultRelTolerance keeps workers within 10% of the mean, matching the
// paper's observed "standard deviations within 10% of the average run
// times" (Figure 8).
const DefaultRelTolerance = 0.10

// tolerance is the load gap worth a transfer among workers of the given
// mean load: max(AbsFloor, RelTolerance × mean).
func (p Policy) tolerance(mean float64) float64 {
	rel := p.RelTolerance
	if rel == 0 {
		rel = DefaultRelTolerance
	}
	return max(rel*mean, float64(p.AbsFloor))
}

// Move records one transferred item.
type Move struct {
	Item     int
	From, To int
}

// Rebalance applies the threshold rule to an assignment in place and
// returns the transfers performed.  Items move from the currently
// heaviest worker to the currently lightest, largest-load items first
// (fewest remote sub-lists for the most balance), never overshooting the
// mean.  Every worker's list ends in descending load order, an item moved
// in behind those of its load already there.
func (p Policy) Rebalance(a Assignment, loads []int64) []Move {
	w := len(a)
	if w < 2 {
		return nil
	}
	totals := a.Totals(loads)
	var total int64
	for _, t := range totals {
		total += t
	}
	mean := float64(total) / float64(w)
	tol := p.tolerance(mean)

	// Sort each worker's items by descending load once; a move searches
	// the donor's list and shifts no item of it (moveList).
	ls := make([]moveList, w)
	for wi := range a {
		ids := a[wi]
		sort.Slice(ids, func(x, y int) bool { return loads[ids[x]] > loads[ids[y]] })
		ls[wi] = newMoveList(ids)
	}

	var moves []Move
	for iter := 0; iter < len(loads); iter++ { // hard bound on transfers
		hi, lo := 0, 0
		for wi := 1; wi < w; wi++ {
			if totals[wi] > totals[hi] {
				hi = wi
			}
			if totals[wi] < totals[lo] {
				lo = wi
			}
		}
		gap := float64(totals[hi] - totals[lo])
		l := &ls[hi]
		if gap <= tol || len(l.main)-l.taken+len(l.in) <= 1 {
			break
		}
		if len(l.in) > 0 {
			l.flush(loads) // a receiver turned donor
		}
		// Choose the largest item on hi that does not push lo above the
		// mean (avoid thrash); fall back to hi's smallest item.  Either
		// way the move must leave the receiver strictly below the donor's
		// current load, or the makespan could grow past the pre-balance
		// maximum.
		pick := l.at(sort.Search(len(l.main), func(x int) bool {
			lift := totals[lo] + loads[l.main[x]]
			return float64(lift) <= mean+tol && lift < totals[hi]
		}))
		if pick == len(l.main) {
			for int(l.nxt[l.end-1]) != l.end-1 {
				l.end--
			}
			pick = l.end - 1
			lift := totals[lo] + loads[l.main[pick]]
			if float64(lift) > mean+gap/2 || lift >= totals[hi] {
				break // any move would overshoot; stop
			}
		}
		item := l.main[pick]
		l.nxt[pick] = int32(pick + 1)
		l.taken++
		ls[lo].in = append(ls[lo].in, item)
		totals[hi] -= loads[item]
		totals[lo] += loads[item]
		moves = append(moves, Move{Item: item, From: hi, To: lo})
	}
	for wi := range a {
		a[wi] = ls[wi].flush(loads)
	}
	return moves
}

// moveList is one worker's items while Rebalance moves them: main, in
// descending load order, whose taken entries are skipped through nxt — a
// union-find of the next entry still present, so taking one shifts
// nothing — and in, the items moved in, in arrival order, which join main
// behind those of their load before the worker donates again.
type moveList struct {
	main  []int
	nxt   []int32 // nxt[i] == i: main[i] is present (i == len(main): the end)
	end   int     // main[end:] are all taken
	taken int     // entries of main taken
	in    []int
}

func newMoveList(ids []int) moveList {
	l := moveList{main: ids, nxt: make([]int32, len(ids)+1), end: len(ids)}
	for i := range l.nxt {
		l.nxt[i] = int32(i)
	}
	return l
}

// at returns the first present index of main at or after i.
func (l *moveList) at(i int) int {
	for int(l.nxt[i]) != i {
		l.nxt[i] = l.nxt[l.nxt[i]]
		i = int(l.nxt[i])
	}
	return i
}

// flush folds in into main and returns the list's items in order: a
// stable sort keeps main's order and puts a moved-in item behind every
// item of its load that was there before it.
func (l *moveList) flush(loads []int64) []int {
	out := make([]int, 0, len(l.main)-l.taken+len(l.in))
	for i := l.at(0); i < len(l.main); i = l.at(i + 1) {
		out = append(out, l.main[i])
	}
	out = append(out, l.in...)
	sort.SliceStable(out, func(x, y int) bool { return loads[out[x]] > loads[out[y]] })
	*l = newMoveList(out)
	return out
}

// LoadStats summarizes the balance quality of per-worker loads.
type LoadStats struct {
	PerWorker []float64
	Mean      float64
	StdDev    float64
	Min, Max  float64
}

// Summarize computes balance statistics for per-worker load totals.
func Summarize(perWorker []float64) LoadStats {
	st := LoadStats{PerWorker: perWorker}
	if len(perWorker) == 0 {
		return st
	}
	var sum float64
	st.Min, st.Max = perWorker[0], perWorker[0]
	for _, v := range perWorker {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(len(perWorker))
	if len(perWorker) > 1 {
		var ss float64
		for _, v := range perWorker {
			d := v - st.Mean
			ss += d * d
		}
		st.StdDev = math.Sqrt(ss / float64(len(perWorker)-1))
	}
	return st
}
