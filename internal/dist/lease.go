package dist

import (
	"sync"
	"time"

	"repro/internal/ooc"
)

// CompleteStatus classifies a result delivery against the lease table.
type CompleteStatus int

const (
	// Accepted: the result came from the shard's live lease and is the
	// shard's one accepted join.  Its output files are now owned by the
	// level.
	Accepted CompleteStatus = iota
	// Duplicate: the same lease's result was already accepted (a
	// retransmit).  The files on disk are the accepted ones — ignore
	// the delivery, do not delete anything.
	Duplicate
	// Stale: the lease was superseded (expired and re-leased, or its
	// worker was declared dead) before the result arrived.  The
	// delivery's output files are orphans: they are not delivered, and
	// the level loop's boundary sweep deletes them.
	Stale
)

func (s CompleteStatus) String() string {
	switch s {
	case Accepted:
		return "accepted"
	case Duplicate:
		return "duplicate"
	case Stale:
		return "stale"
	}
	return "unknown"
}

// Lease is one grant: join shard Shard (index into the level's shard
// list) and deliver the result before Deadline.  Attempt counts grants
// of this shard (1-based), and is baked into the worker's output shard
// names so re-executions cannot collide.
type Lease struct {
	ID       int64
	Shard    int
	Worker   int
	Attempt  int
	Deadline time.Time
}

// LeaseTable tracks one level's shards through the lease lifecycle
//
//	pending --Acquire--> leased --Complete--> done
//	            ^            |
//	            +--Release/Expire (recorded as a ReleaseRecord)
//
// Every transition takes an explicit clock so the expiry races the
// tests pin down are deterministic.  All methods are safe for
// concurrent use.
type LeaseTable struct {
	mu       sync.Mutex
	level    int // clique size of the level's records (for release records)
	names    []string
	timeout  time.Duration
	nextID   int64
	cur      []Lease // live lease per shard; ID 0 = none
	attempts []int   // grants so far per shard
	done     []bool
	doneN    int
	byID     map[int64]int // live lease ID -> shard
	accepted map[int64]int // accepted lease ID -> shard
	releases []ooc.ReleaseRecord
}

// NewLeaseTable builds the table for one level's shard list.
func NewLeaseTable(level int, shards []ooc.ShardMeta, timeout time.Duration) *LeaseTable {
	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.Path
	}
	return &LeaseTable{
		level:    level,
		names:    names,
		timeout:  timeout,
		cur:      make([]Lease, len(shards)),
		attempts: make([]int, len(shards)),
		done:     make([]bool, len(shards)),
		byID:     make(map[int64]int),
		accepted: make(map[int64]int),
	}
}

// Acquire grants the lowest-indexed shard that is neither done nor
// currently leased.  Lowest-first keeps the in-order release window
// (and thus the sequencer's buffered backlog) small.  ok is false when
// every remaining shard is leased or done — the caller parks the worker
// until a release or completion frees work.
func (t *LeaseTable) Acquire(worker int, now time.Time) (l Lease, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.cur {
		if t.done[i] || t.cur[i].ID != 0 {
			continue
		}
		t.nextID++
		t.attempts[i]++
		l = Lease{
			ID:       t.nextID,
			Shard:    i,
			Worker:   worker,
			Attempt:  t.attempts[i],
			Deadline: now.Add(t.timeout),
		}
		t.cur[i] = l
		t.byID[l.ID] = i
		return l, true
	}
	return Lease{}, false
}

// Complete records a result delivery for lease id and classifies it:
// Accepted exactly once per shard (from its live lease), Duplicate for
// a re-delivery of the accepted lease, Stale for a superseded lease.
// The shard index is valid for every status except Stale deliveries
// whose lease the table no longer knows (then shard is -1).
func (t *LeaseTable) Complete(id int64, now time.Time) (shard int, status CompleteStatus) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.accepted[id]; ok {
		return s, Duplicate
	}
	i, live := t.byID[id]
	if !live {
		return -1, Stale
	}
	// The live lease's result is accepted even if its deadline has
	// technically passed: expiry is decided by the Expire sweep, and a
	// result that beats the sweep is a perfectly good result.
	delete(t.byID, id)
	t.cur[i] = Lease{}
	t.done[i] = true
	t.doneN++
	t.accepted[id] = i
	return i, Accepted
}

// Release returns a live lease's shard to the pending pool — the
// worker died, or the coordinator decided to revoke.  The release is
// recorded in the table's history.  A second release of the same lease
// (or a release after the result was accepted) reports false and
// changes nothing: release/complete settle each lease exactly once.
func (t *LeaseTable) Release(id int64, reason string, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, live := t.byID[id]
	if !live {
		return false
	}
	t.release(i, reason)
	return true
}

// release unlinks shard i's live lease and records why.  Caller holds mu.
func (t *LeaseTable) release(i int, reason string) {
	l := t.cur[i]
	delete(t.byID, l.ID)
	t.cur[i] = Lease{}
	t.releases = append(t.releases, ooc.ReleaseRecord{
		Level:   t.level,
		Shard:   t.names[i],
		Worker:  l.Worker,
		Attempt: l.Attempt,
		Reason:  reason,
	})
}

// Expire sweeps leases whose deadline has passed, returning them to the
// pending pool and reporting them so the coordinator can treat the
// holders as suspect.  An expired lease's late result will classify as
// Stale; its re-execution gets a fresh attempt number.
func (t *LeaseTable) Expire(now time.Time) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	var expired []Lease
	for i := range t.cur {
		if t.cur[i].ID != 0 && now.After(t.cur[i].Deadline) {
			expired = append(expired, t.cur[i])
			t.release(i, "lease expired")
		}
	}
	return expired
}

// Extend pushes a live lease's deadline out from now — the coordinator
// calls it when the holding worker proves liveness (a heartbeat or any
// other frame).  Reports false for settled or superseded leases.
func (t *LeaseTable) Extend(id int64, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, live := t.byID[id]
	if !live {
		return false
	}
	t.cur[i].Deadline = now.Add(t.timeout)
	return true
}

// Done reports whether every shard's result has been accepted.
func (t *LeaseTable) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.doneN == len(t.done)
}

// Releases returns the table's re-lease history in occurrence order.
func (t *LeaseTable) Releases() []ooc.ReleaseRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]ooc.ReleaseRecord(nil), t.releases...)
}
