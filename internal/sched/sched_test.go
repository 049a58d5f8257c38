package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBalancedContiguousBasics(t *testing.T) {
	loads := []int64{10, 10, 10, 10}
	a := BalancedContiguous(loads, 2)
	if a.Workers() != 2 || a.Items() != 4 {
		t.Fatalf("assignment %v", a)
	}
	totals := a.Totals(loads)
	if totals[0] != 20 || totals[1] != 20 {
		t.Errorf("totals %v", totals)
	}
	// Contiguity: worker 0 gets a prefix.
	if a[0][0] != 0 || a[0][len(a[0])-1] != len(a[0])-1 {
		t.Errorf("chunk 0 not contiguous: %v", a[0])
	}
}

func TestBalancedContiguousSkew(t *testing.T) {
	// One huge item: it should own a chunk alone (as far as possible).
	loads := []int64{1, 1, 100, 1, 1}
	a := BalancedContiguous(loads, 3)
	totals := a.Totals(loads)
	max := int64(0)
	for _, v := range totals {
		if v > max {
			max = v
		}
	}
	if max > 102 {
		t.Errorf("makespan %d too high: %v", max, a)
	}
	if a.Items() != 5 {
		t.Errorf("lost items: %v", a)
	}
}

func TestBalancedContiguousEdgeCases(t *testing.T) {
	if a := BalancedContiguous(nil, 3); a.Items() != 0 || a.Workers() != 3 {
		t.Errorf("empty loads: %v", a)
	}
	// More workers than items.
	a := BalancedContiguous([]int64{5, 5}, 8)
	if a.Items() != 2 {
		t.Errorf("items lost: %v", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("0 workers did not panic")
		}
	}()
	BalancedContiguous([]int64{1}, 0)
}

func TestByHome(t *testing.T) {
	homes := []int32{0, 1, 1, 0, 2}
	a := ByHome(homes, 3)
	if len(a[0]) != 2 || len(a[1]) != 2 || len(a[2]) != 1 {
		t.Errorf("ByHome = %v", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range home did not panic")
		}
	}()
	ByHome([]int32{5}, 3)
}

func TestRebalanceMovesFromHeavyToLight(t *testing.T) {
	loads := []int64{50, 50, 50, 50, 1, 1}
	a := Assignment{{0, 1, 2, 3}, {4, 5}}
	moves := Policy{}.Rebalance(a, loads)
	if len(moves) == 0 {
		t.Fatal("no transfers on a 200-vs-2 imbalance")
	}
	totals := a.Totals(loads)
	gap := totals[0] - totals[1]
	if gap < 0 {
		gap = -gap
	}
	if gap > 60 {
		t.Errorf("still imbalanced after rebalance: %v", totals)
	}
	for _, m := range moves {
		if m.From != 0 || m.To != 1 {
			t.Errorf("unexpected move %+v", m)
		}
	}
	if a.Items() != 6 {
		t.Errorf("items lost: %v", a)
	}
}

func TestRebalanceRespectsThreshold(t *testing.T) {
	// 8% imbalance is inside the default 10% tolerance: no transfers.
	loads := []int64{54, 50}
	a := Assignment{{0}, {1}}
	if moves := (Policy{}).Rebalance(a, loads); len(moves) != 0 {
		t.Errorf("transfers within tolerance: %v", moves)
	}
	// Tight policy forces the transfer decision (but a single item per
	// worker cannot improve, so still no move).
	if moves := (Policy{RelTolerance: 0.001}).Rebalance(a, loads); len(moves) != 0 {
		t.Errorf("impossible transfer attempted: %v", moves)
	}
}

func TestRebalanceAbsFloor(t *testing.T) {
	loads := []int64{5, 3, 1}
	a := Assignment{{0, 1}, {2}}
	if moves := (Policy{AbsFloor: 100}).Rebalance(a, loads); len(moves) != 0 {
		t.Errorf("transfers below AbsFloor: %v", moves)
	}
}

func TestRebalanceSingleWorker(t *testing.T) {
	a := Assignment{{0, 1}}
	if moves := (Policy{}).Rebalance(a, []int64{1, 2}); moves != nil {
		t.Errorf("single worker rebalanced: %v", moves)
	}
}

func TestRebalanceAllEqualLoads(t *testing.T) {
	loads := []int64{7, 7, 7, 7, 7, 7}
	a := Assignment{{0, 1}, {2, 3}, {4, 5}}
	if moves := (Policy{}).Rebalance(a, loads); len(moves) != 0 {
		t.Errorf("moved on perfectly balanced loads: %v", moves)
	}
	// Even with a zero-tolerance policy there is no gap to close.
	a = Assignment{{0, 1}, {2, 3}, {4, 5}}
	if moves := (Policy{RelTolerance: 1e-9}).Rebalance(a, loads); len(moves) != 0 {
		t.Errorf("moved on balanced loads under tight policy: %v", moves)
	}
}

func TestRebalanceOneGiantItem(t *testing.T) {
	// One item dwarfs everything; moving it can only make things worse,
	// and the small items must still flow to the light workers.
	loads := []int64{1000, 1, 1, 1, 1}
	a := Assignment{{0, 1, 2, 3, 4}, {}, {}}
	moves := (Policy{}).Rebalance(a, loads)
	for _, m := range moves {
		if m.Item == 0 {
			t.Errorf("moved the giant item: %+v", m)
		}
	}
	if a.Items() != 5 {
		t.Errorf("items lost: %v", a)
	}
	// The giant's owner must still hold it.
	found := false
	for _, item := range a[0] {
		if item == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("giant item left worker 0: %v", a)
	}
}

func TestRebalanceAbsFloorDominatesTolerance(t *testing.T) {
	// Mean load 30 with 10% tolerance gives tol 3; AbsFloor 50 must win
	// and suppress the 40-unit gap that tolerance alone would close.
	loads := []int64{40, 10, 30, 40}
	a := Assignment{{0, 1}, {2}, {3}}
	if moves := (Policy{AbsFloor: 50}).Rebalance(a, loads); len(moves) != 0 {
		t.Errorf("AbsFloor did not dominate: %v", moves)
	}
	// Same loads without the floor: the gap exceeds tolerance and moves.
	a = Assignment{{0, 1}, {2}, {3}}
	if moves := (Policy{}).Rebalance(a, loads); len(moves) == 0 {
		t.Error("no transfer once AbsFloor is lifted")
	}
}

// Regression: Rebalance used to lift the lightest worker above the
// pre-balance maximum when the mean sat close to the maximum (found by
// TestQuickRebalanceInvariants, seed -8142442085675318554: totals
// [5196 4326 4968 4587] became [4282 5240 4968 4587]).
func TestRebalanceNeverRaisesMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(-8142442085675318554))
	n := 1 + rng.Intn(60)
	p := 1 + rng.Intn(8)
	loads := make([]int64, n)
	for i := range loads {
		loads[i] = int64(1 + rng.Intn(1000))
	}
	homes := make([]int32, n)
	for i := range homes {
		homes[i] = int32(rng.Intn(p))
	}
	a := ByHome(homes, p)
	maxBefore := int64(0)
	for _, v := range a.Totals(loads) {
		if v > maxBefore {
			maxBefore = v
		}
	}
	Policy{}.Rebalance(a, loads)
	for _, v := range a.Totals(loads) {
		if v > maxBefore {
			t.Fatalf("makespan rose from %d to %d", maxBefore, v)
		}
	}
}

// Property: rebalancing never loses items, never duplicates them, and
// never increases the makespan.
func TestQuickRebalanceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		p := 1 + rng.Intn(8)
		loads := make([]int64, n)
		for i := range loads {
			loads[i] = int64(1 + rng.Intn(1000))
		}
		homes := make([]int32, n)
		for i := range homes {
			homes[i] = int32(rng.Intn(p))
		}
		a := ByHome(homes, p)
		before := a.Totals(loads)
		maxBefore := int64(0)
		for _, v := range before {
			if v > maxBefore {
				maxBefore = v
			}
		}
		Policy{}.Rebalance(a, loads)

		// No loss, no duplication.
		seen := make(map[int]bool, n)
		for _, ids := range a {
			for _, i := range ids {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		if len(seen) != n {
			return false
		}
		after := a.Totals(loads)
		maxAfter := int64(0)
		for _, v := range after {
			if v > maxAfter {
				maxAfter = v
			}
		}
		return maxAfter <= maxBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: BalancedContiguous chunks are contiguous, cover all items,
// and achieve makespan within max-item + mean of optimal.
func TestQuickContiguousCoverage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80)
		p := 1 + rng.Intn(10)
		loads := make([]int64, n)
		var total, maxItem int64
		for i := range loads {
			loads[i] = int64(1 + rng.Intn(500))
			total += loads[i]
			if loads[i] > maxItem {
				maxItem = loads[i]
			}
		}
		a := BalancedContiguous(loads, p)
		next := 0
		for _, ids := range a {
			for _, i := range ids {
				if i != next {
					return false
				}
				next++
			}
		}
		if next != n {
			return false
		}
		if n == 0 {
			return true
		}
		totals := a.Totals(loads)
		var makespan int64
		for _, v := range totals {
			if v > makespan {
				makespan = v
			}
		}
		ideal := total / int64(p)
		return makespan <= ideal+maxItem+ideal/int64(p)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{10, 12, 8, 10})
	if st.Mean != 10 || st.Min != 8 || st.Max != 12 {
		t.Errorf("stats %+v", st)
	}
	if st.StdDev < 1.6 || st.StdDev > 1.7 {
		t.Errorf("stddev %g", st.StdDev)
	}
}

// rebalanceReference is Rebalance as it was written first: each move
// deletes the item from the donor's list and inserts it into the
// receiver's, shifting both — quadratic on a level of millions of
// sub-lists, and the reference the search-based Rebalance must match.
func rebalanceReference(p Policy, a Assignment, loads []int64) []Move {
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
	for wi := range a {
		ids := a[wi]
		sort.Slice(ids, func(x, y int) bool { return loads[ids[x]] > loads[ids[y]] })
	}
	var moves []Move
	for iter := 0; iter < len(loads); iter++ {
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
		if gap <= tol || len(a[hi]) <= 1 {
			break
		}
		pick := -1
		for idx, item := range a[hi] {
			if lift := totals[lo] + loads[item]; float64(lift) <= mean+tol && lift < totals[hi] {
				pick = idx
				break
			}
		}
		if pick == -1 {
			pick = len(a[hi]) - 1
			item := a[hi][pick]
			lift := totals[lo] + loads[item]
			if float64(lift) > mean+gap/2 || lift >= totals[hi] {
				break
			}
		}
		item := a[hi][pick]
		a[hi] = append(a[hi][:pick], a[hi][pick+1:]...)
		ins := sort.Search(len(a[lo]), func(x int) bool {
			return loads[a[lo][x]] < loads[item]
		})
		a[lo] = append(a[lo], 0)
		copy(a[lo][ins+1:], a[lo][ins:])
		a[lo][ins] = item
		totals[hi] -= loads[item]
		totals[lo] += loads[item]
		moves = append(moves, Move{Item: item, From: hi, To: lo})
	}
	return moves
}

// TestRebalanceMatchesReference: Rebalance makes the reference's moves,
// in its order, and leaves every worker's list in the reference's order —
// the order a barrier joins in — on random loads full of ties, skewed
// homes that force long runs of moves, receivers that turn donor, and
// lists long enough that moved-in items are folded into the sorted part.
// The first case is one where a receiver turned donor falls back to its
// last item, which ties the item it received last: that one goes.
func TestRebalanceMatchesReference(t *testing.T) {
	check := func(trial int, loads []int64, homes []int32, p int, policy Policy) {
		t.Helper()
		got, want := ByHome(homes, p), ByHome(homes, p)
		gotMoves, wantMoves := policy.Rebalance(got, loads), rebalanceReference(policy, want, loads)
		if !reflect.DeepEqual(gotMoves, wantMoves) {
			t.Fatalf("trial %d (n %d, p %d): moves %v, the reference's %v", trial, len(loads), p, gotMoves, wantMoves)
		}
		for w := range got {
			if len(got[w])+len(want[w]) > 0 && !reflect.DeepEqual(got[w], want[w]) {
				t.Fatalf("trial %d (n %d, p %d): worker %d ends as %v, the reference as %v", trial, len(loads), p, w, got[w], want[w])
			}
		}
	}
	check(-1, []int64{7, 1, 1, 10, 10, 3, 3, 13, 6, 1, 1, 3}, []int32{0, 2, 0, 1, 1, 1, 1, 2, 2, 1, 0, 2}, 3,
		Policy{RelTolerance: 0.001})
	rng := rand.New(rand.NewSource(48))
	for trial := range 4000 {
		n, p, skew := 2+rng.Intn(12), 2+rng.Intn(3), 0
		if trial%10 == 0 {
			n, p = 1+rng.Intn(3000), 2+rng.Intn(8)
			skew = rng.Intn(p)
		}
		loads := make([]int64, n)
		spread := 1 + rng.Intn(20)
		for i := range loads {
			loads[i] = int64(1 + rng.Intn(spread))
			if rng.Intn(50) == 0 {
				loads[i] *= int64(1 + rng.Intn(100))
			}
		}
		homes := make([]int32, n)
		for i := range homes {
			homes[i] = int32(rng.Intn(p - skew))
		}
		check(trial, loads, homes, p, Policy{RelTolerance: []float64{0, 0.001, 0.3, 0.6}[rng.Intn(4)], AbsFloor: int64(rng.Intn(2) * 5)})
	}
}
