package dist

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ooc"
)

func testShards(n int) []ooc.ShardMeta {
	shards := make([]ooc.ShardMeta, n)
	for i := range shards {
		shards[i] = ooc.ShardMeta{Path: ooc.ShardFileName(3, "t"), Records: 1, Bytes: 8}
	}
	return shards
}

// TestLeaseExpiryDuringInFlightDelivery pins the race the lease table
// exists for: the lease expires while its result is in flight, so the
// late delivery must classify Stale (files deleted), and the re-leased
// attempt's delivery must be the accepted one.
func TestLeaseExpiryDuringInFlightDelivery(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tab := NewLeaseTable(3, testShards(1), time.Second)

	l1, ok := tab.Acquire(0, t0)
	if !ok || l1.Shard != 0 || l1.Attempt != 1 {
		t.Fatalf("first acquire = %+v, %v", l1, ok)
	}
	// Worker 0's result is "in flight" when the sweep runs.
	expired := tab.Expire(t0.Add(2 * time.Second))
	if len(expired) != 1 || expired[0].ID != l1.ID {
		t.Fatalf("Expire = %+v, want lease %d", expired, l1.ID)
	}
	// The late delivery lands after the sweep: must be Stale.
	if shard, st := tab.Complete(l1.ID, t0.Add(2*time.Second)); st != Stale {
		t.Fatalf("late delivery: (%d, %v), want Stale", shard, st)
	}
	if tab.Done() {
		t.Fatal("table done after stale delivery")
	}
	// Re-lease carries the next attempt number.
	l2, ok := tab.Acquire(1, t0.Add(2*time.Second))
	if !ok || l2.Shard != 0 || l2.Attempt != 2 {
		t.Fatalf("re-lease = %+v, %v, want shard 0 attempt 2", l2, ok)
	}
	if shard, st := tab.Complete(l2.ID, t0.Add(3*time.Second)); st != Accepted || shard != 0 {
		t.Fatalf("re-leased delivery: (%d, %v), want (0, Accepted)", shard, st)
	}
	if !tab.Done() {
		t.Fatal("table not done after accepted delivery")
	}
	rel := tab.Releases()
	if len(rel) != 1 || rel[0].Reason != "lease expired" || rel[0].Attempt != 1 || rel[0].Worker != 0 {
		t.Fatalf("release history = %+v", rel)
	}
}

// TestLeaseDoubleRelease: a lease settles exactly once — the second
// release of the same shard's lease is a no-op, not a second history
// entry or a corrupted pending pool.
func TestLeaseDoubleRelease(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tab := NewLeaseTable(3, testShards(2), time.Second)
	l, _ := tab.Acquire(0, t0)
	if !tab.Release(l.ID, "worker died", t0) {
		t.Fatal("first release reported false")
	}
	if tab.Release(l.ID, "worker died again", t0) {
		t.Fatal("second release of the same lease reported true")
	}
	if n := len(tab.Releases()); n != 1 {
		t.Fatalf("release history has %d entries, want 1", n)
	}
	// The shard is pending again exactly once: two acquires must grab
	// the two distinct shards, a third finds nothing.
	a, _ := tab.Acquire(1, t0)
	b, _ := tab.Acquire(2, t0)
	if a.Shard == b.Shard {
		t.Fatalf("double-released shard handed out twice: %d and %d", a.Shard, b.Shard)
	}
	if _, ok := tab.Acquire(3, t0); ok {
		t.Fatal("third acquire found a shard in a 2-shard table")
	}
}

// TestLeaseReLeaseRacingCompletion: after a heartbeat-timeout re-lease,
// whichever delivery belongs to the live lease wins — the superseded
// worker's result is stale even if it arrives first, and a result that
// beats the expiry sweep is accepted even past its deadline.
func TestLeaseReLeaseRacingCompletion(t *testing.T) {
	t0 := time.Unix(1000, 0)

	// Arm A, expire it, re-lease to B.  A delivers first, then B.
	tab := NewLeaseTable(3, testShards(1), time.Second)
	a, _ := tab.Acquire(0, t0)
	tab.Expire(t0.Add(5 * time.Second))
	b, _ := tab.Acquire(1, t0.Add(5*time.Second))
	if _, st := tab.Complete(a.ID, t0.Add(5*time.Second)); st != Stale {
		t.Fatalf("superseded worker's delivery = %v, want Stale", st)
	}
	if _, st := tab.Complete(b.ID, t0.Add(6*time.Second)); st != Accepted {
		t.Fatalf("live lease's delivery = %v, want Accepted", st)
	}

	// The mirror race: A's result beats the sweep.  It is accepted
	// (deadline notwithstanding), the sweep then finds nothing, and no
	// re-lease ever happens.
	tab = NewLeaseTable(3, testShards(1), time.Second)
	a, _ = tab.Acquire(0, t0)
	if _, st := tab.Complete(a.ID, t0.Add(5*time.Second)); st != Accepted {
		t.Fatalf("pre-sweep delivery = %v, want Accepted", st)
	}
	if exp := tab.Expire(t0.Add(5 * time.Second)); len(exp) != 0 {
		t.Fatalf("sweep after acceptance expired %+v", exp)
	}
	if _, ok := tab.Acquire(1, t0.Add(5*time.Second)); ok {
		t.Fatal("completed shard re-leased")
	}
	if !tab.Done() {
		t.Fatal("table not done")
	}
	// A retransmit of the accepted result is Duplicate — files stay.
	if _, st := tab.Complete(a.ID, t0.Add(6*time.Second)); st != Duplicate {
		t.Fatalf("retransmit = %v, want Duplicate", st)
	}
}

// TestLeaseExtend: liveness proof pushes the deadline out, so a slow
// worker that heartbeats is never swept.
func TestLeaseExtend(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tab := NewLeaseTable(3, testShards(1), time.Second)
	l, _ := tab.Acquire(0, t0)
	if !tab.Extend(l.ID, t0.Add(900*time.Millisecond)) {
		t.Fatal("extend of live lease reported false")
	}
	if exp := tab.Expire(t0.Add(1500 * time.Millisecond)); len(exp) != 0 {
		t.Fatalf("extended lease expired: %+v", exp)
	}
	if exp := tab.Expire(t0.Add(3 * time.Second)); len(exp) != 1 {
		t.Fatalf("lease never expired after extension lapsed: %+v", exp)
	}
	if tab.Extend(l.ID, t0.Add(4*time.Second)) {
		t.Fatal("extend of a released lease reported true")
	}
}

// TestLeaseTableConcurrent hammers the table from many goroutines so
// the race detector (make race) can see any unlocked path.  Invariant
// checked: every shard is accepted exactly once.
func TestLeaseTableConcurrent(t *testing.T) {
	const shards = 64
	const workers = 8
	tab := NewLeaseTable(3, testShards(shards), 50*time.Millisecond)
	var accepted sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !tab.Done() {
				now := time.Now()
				tab.Expire(now)
				l, ok := tab.Acquire(w, now)
				if !ok {
					continue
				}
				// Half the workers are "slow": release instead of
				// completing, forcing re-leases.
				if w%2 == 1 && l.Attempt == 1 {
					tab.Release(l.ID, "simulated death", now)
					continue
				}
				if shard, st := tab.Complete(l.ID, time.Now()); st == Accepted {
					if _, dup := accepted.LoadOrStore(shard, w); dup {
						t.Errorf("shard %d accepted twice", shard)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	n := 0
	accepted.Range(func(any, any) bool { n++; return true })
	if n != shards {
		t.Fatalf("%d shards accepted, want %d", n, shards)
	}
}
