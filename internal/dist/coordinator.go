package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/ooc"
	"repro/internal/sched"
)

// GraphFileName is the shared edge-list file the coordinator writes
// into the run directory for workers to load.
const GraphFileName = "dist-graph.el"

// ReportName is the coordinator's final run report — the distributed
// counterpart of the retired checkpoint manifest, kept after success so
// operators (and the kill-a-worker smoke test) can audit the run's
// re-lease history.
const ReportName = "dist-manifest.json"

// Options configures a distributed enumeration.
type Options struct {
	// Ctx cancels the run between events; nil means Background.
	Ctx context.Context
	// Dir is the shared run directory (required).  The coordinator owns
	// it for the run's duration: graph file, level shards, checkpoint
	// manifest, and final report all live here.
	Dir string
	// Workers is the number of worker slots (>= 1).
	Workers int
	// Transport connects worker slots; nil means the exec/pipe
	// transport spawning WorkerCmd (or this binary with -worker).
	Transport Transport
	// WorkerCmd is the exec transport's worker argv (nil = self).
	WorkerCmd []string
	// LeaseTimeout bounds one shard join; an overdue lease is revoked,
	// its worker killed, and the shard re-leased.  Default 30s.
	LeaseTimeout time.Duration
	// Heartbeat is the worker liveness beacon period; default
	// LeaseTimeout/8 clamped to [100ms, 1s].
	Heartbeat time.Duration
	// MaxDeaths fails the run after this many worker deaths (0 =
	// 2*Workers+2): fault tolerance must not hide a systematically
	// crashing worker binary behind infinite respawns.
	MaxDeaths int
	// Reporter receives maximal cliques in the canonical stream order —
	// byte-identical to a sequential run at any worker count.
	Reporter clique.Reporter
	// MaxK stops after generating cliques of size MaxK (0 = run out).
	MaxK int
	// Compress delta-varint encodes the level shards.
	Compress bool
	// ShardBytes overrides the target shard size (0 = auto).
	ShardBytes int64
	// OnLevel observes each generation step.
	OnLevel func(ooc.LevelStats)
	// Gov is the coordinator's governor — the run's single accounting
	// authority.  Each worker's declared scratch is held as a child
	// reservation for the worker's lifetime; nil means unmetered.
	Gov *membudget.Governor
}

// Stats reports a distributed run.
type Stats struct {
	Maximal         int64
	Levels          int
	Shards          int64
	BytesWritten    int64 // encoded bytes of all produced levels
	RawBytesWritten int64
	BytesRead       int64 // encoded bytes workers read back
	Workers         int
	Releases        int // leases revoked (expiry or death) and re-run
	WorkerDeaths    int
}

// Report is the persisted run summary (ReportName).
type Report struct {
	Owner        ooc.Owner           `json:"owner"`
	Workers      int                 `json:"workers"`
	Levels       int                 `json:"levels"`
	Maximal      int64               `json:"maximal"`
	Shards       int64               `json:"shards"`
	WorkerDeaths int                 `json:"worker_deaths"`
	Releases     []ooc.ReleaseRecord `json:"releases"`
	GraphHash    string              `json:"graph_hash"`
}

func normalize(opts *Options) error {
	if opts.Dir == "" {
		return fmt.Errorf("dist: Dir is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = 30 * time.Second
	}
	if opts.Heartbeat <= 0 {
		hb := opts.LeaseTimeout / 8
		if hb < 100*time.Millisecond {
			hb = 100 * time.Millisecond
		}
		if hb > time.Second {
			hb = time.Second
		}
		opts.Heartbeat = hb
	}
	if opts.MaxDeaths <= 0 {
		opts.MaxDeaths = 2*opts.Workers + 2
	}
	if opts.ShardBytes < 0 {
		return fmt.Errorf("dist: negative ShardBytes %d", opts.ShardBytes)
	}
	if opts.Gov == nil {
		opts.Gov = membudget.New(0)
	}
	if opts.Transport == nil {
		opts.Transport = &ExecTransport{Command: opts.WorkerCmd}
	}
	return nil
}

// event is one frame (or stream failure) from a worker slot, funneled
// into the coordinator's single dispatch loop.
type event struct {
	slot int
	gen  int // dial generation, so a dead worker's trailing events are ignored
	msg  *Msg
	err  error
}

// workerState is the coordinator's view of one slot.
type workerState struct {
	slot  int
	gen   int
	conn  Conn
	res   *membudget.Reservation // the worker's scratch, held on its behalf
	ready bool
	lease *Lease
}

// coordinator is one run's state.
type coordinator struct {
	opts   Options
	g      graph.Interface
	dir    string
	owner  ooc.Owner
	fp     string
	events chan event
	done   chan struct{}  // closed at run end; unblocks parked pumps
	reaps  sync.WaitGroup // in-flight async conn closes; joined at run end
	ws     []*workerState
	gens   []int // per-slot dial generation, monotonic across respawns

	table       *LeaseTable // current level's leases (nil between levels)
	levelShards []ooc.ShardMeta
	seq         *sched.Sequencer[*Msg]
	target      int64
	level       int
	collect     bool
	shardSeq    int64

	maximal    int64
	levels     int
	shards     int64
	written    int64
	rawWritten int64
	read       int64
	deaths     int
	releases   []ooc.ReleaseRecord
	claimed    bool
	nextLevel  []ooc.ShardMeta
}

// Enumerate runs the distributed enumeration: the coordinator owns the
// run directory, workers own shard joins, and the merged stream obeys
// the same order law as every other backend.
func Enumerate(g graph.Interface, opts Options) (Stats, error) {
	if err := normalize(&opts); err != nil {
		return Stats{}, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return Stats{}, err
	}
	if ooc.HasManifest(opts.Dir) {
		return Stats{}, fmt.Errorf("dist: %s already holds a checkpoint; Resume or remove it", opts.Dir)
	}
	c := &coordinator{
		opts:   opts,
		g:      g,
		dir:    opts.Dir,
		owner:  ooc.SelfOwner("coordinator"),
		fp:     ooc.Fingerprint(g),
		events: make(chan event, 4*opts.Workers+4),
		done:   make(chan struct{}),
		ws:     make([]*workerState, opts.Workers),
		gens:   make([]int, opts.Workers),
	}
	st, err := c.run()
	return st, err
}

func (c *coordinator) stats() Stats {
	return Stats{
		Maximal:         c.maximal,
		Levels:          c.levels,
		Shards:          c.shards,
		BytesWritten:    c.written,
		RawBytesWritten: c.rawWritten,
		BytesRead:       c.read,
		Workers:         c.opts.Workers,
		Releases:        len(c.releases),
		WorkerDeaths:    c.deaths,
	}
}

func (c *coordinator) run() (Stats, error) {
	defer close(c.done) // parked pumps exit once the run is over
	defer c.reaps.Wait()
	defer c.shutdownWorkers()

	// Ship the graph: exec workers share the host filesystem, so bulk
	// data (graph, shards) moves through the run directory and only
	// metadata crosses the wire.
	if err := c.writeGraph(); err != nil {
		return c.stats(), err
	}
	for i := range c.ws {
		if err := c.startWorker(i); err != nil {
			return c.stats(), err
		}
	}

	// Level 2 — the edge level — is coordinator-written; every later
	// level is assembled from worker output shards.
	shards, err := c.spillEdges()
	if err != nil {
		return c.stats(), err
	}
	if err := c.commitManifest(shards, 2); err != nil {
		return c.stats(), err
	}

	k := 2
	for ooc.LevelRecords(shards) > 0 {
		if c.opts.MaxK > 0 && k >= c.opts.MaxK {
			break
		}
		if err := c.opts.Ctx.Err(); err != nil {
			return c.stats(), fmt.Errorf("dist: canceled before level %d->%d: %w", k, k+1, err)
		}
		next, err := c.runLevel(shards, k)
		if err != nil {
			return c.stats(), err
		}
		// Crash-ordering, inherited from the single-machine checkpoint:
		// produced level durable → manifest names it → consumed level
		// deleted.  Then sweep orphans (a superseded attempt's outputs).
		if err := c.commitManifest(next, k+1); err != nil {
			return c.stats(), err
		}
		if err := c.removeShards(shards); err != nil {
			return c.stats(), err
		}
		if err := ooc.RemoveStaleShards(c.dir, next); err != nil {
			return c.stats(), err
		}
		shards, k = next, k+1
	}

	// Completion: retire the checkpoint manifest before deleting the
	// shards it names, then persist the audit report.
	if err := ooc.RemoveManifest(c.dir); err != nil {
		return c.stats(), err
	}
	if err := c.removeShards(shards); err != nil {
		return c.stats(), err
	}
	if err := os.Remove(filepath.Join(c.dir, GraphFileName)); err != nil {
		return c.stats(), err
	}
	if err := c.writeReport(); err != nil {
		return c.stats(), err
	}
	return c.stats(), nil
}

func (c *coordinator) writeGraph() error {
	f, err := os.Create(filepath.Join(c.dir, GraphFileName))
	if err != nil {
		return fmt.Errorf("dist: write graph: %w", err)
	}
	if err := graph.WriteEdgeList(f, c.g); err != nil {
		return fmt.Errorf("dist: write graph: %w", errors.Join(err, f.Close()))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dist: write graph: %w", err)
	}
	return nil
}

func (c *coordinator) nextShardName(k int) string {
	c.shardSeq++
	return ooc.ShardFileName(k, fmt.Sprintf("c-%06d", c.shardSeq))
}

func (c *coordinator) spillEdges() ([]ooc.ShardMeta, error) {
	target := c.opts.ShardBytes
	if target == 0 {
		target = ooc.DefaultShardTarget(8*int64(c.g.M()), c.opts.Workers)
	}
	shards, err := ooc.WriteLevel(c.dir, 2, c.opts.Compress, target, c.opts.Gov,
		func() (string, error) { return c.nextShardName(2), nil },
		func(enc, raw int64) error {
			c.written += enc
			c.rawWritten += raw
			return nil
		},
		ooc.EdgeFeed(c.opts.Ctx, c.g))
	if err != nil {
		return nil, err
	}
	c.shards += int64(len(shards))
	return shards, nil
}

func (c *coordinator) commitManifest(shards []ooc.ShardMeta, k int) error {
	err := ooc.WriteManifest(c.dir, &ooc.Manifest{
		Owner:    c.owner,
		Compress: c.opts.Compress,
		K:        k,
		MaxK:     c.opts.MaxK,
		Shards:   shards,
		Stats: ooc.Stats{
			Maximal:         c.maximal,
			BytesWritten:    c.written,
			RawBytesWritten: c.rawWritten,
			BytesRead:       c.read,
			Levels:          c.levels,
			Shards:          c.shards,
		},
		GraphN:    c.g.N(),
		GraphM:    c.g.M(),
		GraphHash: c.fp,
		Releases:  c.releases,
	}, !c.claimed)
	if err == nil {
		c.claimed = true
	}
	return err
}

func (c *coordinator) writeReport() error {
	data, err := json.MarshalIndent(&Report{
		Owner:        c.owner,
		Workers:      c.opts.Workers,
		Levels:       c.levels,
		Maximal:      c.maximal,
		Shards:       c.shards,
		WorkerDeaths: c.deaths,
		Releases:     append([]ooc.ReleaseRecord{}, c.releases...),
		GraphHash:    c.fp,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("dist: encode report: %w", err)
	}
	tmp := filepath.Join(c.dir, ReportName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("dist: write report: %w", err)
	}
	return os.Rename(tmp, filepath.Join(c.dir, ReportName))
}

func (c *coordinator) removeShards(shards []ooc.ShardMeta) error {
	var errs []error
	for _, s := range shards {
		if err := os.Remove(filepath.Join(c.dir, s.Path)); err != nil && !os.IsNotExist(err) {
			errs = append(errs, fmt.Errorf("dist: remove consumed shard: %w", err))
		}
	}
	return errors.Join(errs...)
}

// startWorker dials a slot and sends init.  The worker becomes
// assignable when its ready frame arrives through the event loop.
func (c *coordinator) startWorker(slot int) error {
	conn, err := c.opts.Transport.Dial(c.opts.Ctx, slot)
	if err != nil {
		return fmt.Errorf("dist: dial worker %d: %w", slot, err)
	}
	c.gens[slot]++
	ws := &workerState{slot: slot, gen: c.gens[slot], conn: conn}
	c.ws[slot] = ws
	if err := conn.Send(&Msg{
		Type:      MsgInit,
		Dir:       c.dir,
		GraphPath: GraphFileName,
		Compress:  c.opts.Compress,
		WorkerID:  fmt.Sprintf("worker-%d", slot),
		PingMS:    c.opts.Heartbeat.Milliseconds(),
	}); err != nil {
		conn.Close()
		return fmt.Errorf("dist: init worker %d: %w", slot, err)
	}
	go c.pump(ws)
	return nil
}

// pump forwards one connection's frames into the event loop until the
// stream breaks.  The final error event carries the break.
func (c *coordinator) pump(ws *workerState) {
	for {
		m, err := ws.conn.Recv()
		select {
		case c.events <- event{slot: ws.slot, gen: ws.gen, msg: m, err: err}:
		case <-c.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// runLevel joins one level's shards across the workers and returns the
// next level's shard list, releasing results in shard order so the
// emitted stream matches the sequential order exactly.
//
//repro:ctxloop
func (c *coordinator) runLevel(shards []ooc.ShardMeta, k int) ([]ooc.ShardMeta, error) {
	c.levels++
	encB, rawB := ooc.LevelBytes(shards)
	lst := ooc.LevelStats{
		FromK:        k,
		Cliques:      ooc.LevelRecords(shards),
		Shards:       len(shards),
		FileBytes:    encB,
		RawFileBytes: rawB,
	}
	maxBefore := c.maximal

	c.level = k
	c.levelShards = shards
	c.table = NewLeaseTable(k, shards, c.opts.LeaseTimeout)
	c.collect = c.opts.Reporter != nil
	c.target = c.opts.ShardBytes
	if c.target == 0 {
		c.target = ooc.DefaultShardTarget(encB, c.opts.Workers)
	}
	c.nextLevel = c.nextLevel[:0]
	c.seq = sched.NewSequencer(len(shards), func(_ int, res *Msg) {
		c.maximal += res.Maximal
		if c.opts.Reporter != nil {
			start := int32(0)
			for _, end := range res.EmitOff {
				c.opts.Reporter.Emit(clique.Clique(res.EmitVerts[start:end]))
				start = end
			}
		}
		c.nextLevel = append(c.nextLevel, res.Out...)
	})

	c.assignAll()
	tick := time.NewTicker(c.opts.Heartbeat)
	defer tick.Stop()
	for !c.table.Done() {
		if err := c.opts.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("dist: canceled during level %d->%d: %w", k, k+1, err)
		}
		select {
		case <-c.opts.Ctx.Done():
			// Observed at the top of the next iteration.
		case ev := <-c.events:
			if err := c.handleEvent(ev); err != nil {
				return nil, err
			}
		case <-tick.C:
			if err := c.expireLeases(); err != nil {
				return nil, err
			}
		}
	}
	c.table = nil
	c.seq = nil

	next := append([]ooc.ShardMeta(nil), c.nextLevel...)
	c.shards += int64(len(next))
	nst, nraw := ooc.LevelBytes(next)
	c.written += nst
	c.rawWritten += nraw
	lst.NextBytes, lst.RawNextBytes = nst, nraw
	lst.Maximal = c.maximal - maxBefore
	if c.opts.OnLevel != nil {
		c.opts.OnLevel(lst)
	}
	return next, nil
}

// handleEvent processes one worker frame (or stream break) during a
// level.
func (c *coordinator) handleEvent(ev event) error {
	ws := c.ws[ev.slot]
	if ws == nil || ws.gen != ev.gen {
		return nil // a dead generation's trailing frame
	}
	now := time.Now()
	if ev.err != nil {
		return c.handleDeath(ws, fmt.Sprintf("worker %d died: %v", ws.slot, ev.err))
	}
	switch ev.msg.Type {
	case MsgReady:
		ws.ready = true
		if err := c.reserveScratch(ws, ev.msg.ScratchBytes); err != nil {
			return err
		}
		c.assign(ws)
	case MsgHeartbeat:
		if ws.lease != nil {
			c.table.Extend(ws.lease.ID, now)
		}
	case MsgResult:
		// The joiner's scratch deepens with the level (one prefix-memo
		// bitmap per level); the reservation follows it.
		if err := c.reserveScratch(ws, ev.msg.ScratchBytes); err != nil {
			return err
		}
		shard, status := c.table.Complete(ev.msg.LeaseID, now)
		if ws.lease != nil && ws.lease.ID == ev.msg.LeaseID {
			ws.lease = nil
		}
		switch status {
		case Accepted:
			c.read += ev.msg.BytesRead
			c.seq.Deposit(shard, ev.msg)
		case Duplicate:
			// The accepted delivery owns the files; nothing to do.
		case Stale:
			// A superseded lease's outputs are orphans — delete now so
			// a re-leased shard's accepted outputs are never shadowed.
			if err := c.removeShards(ev.msg.Out); err != nil {
				return err
			}
		}
		c.assign(ws)
	case MsgError:
		return fmt.Errorf("dist: worker %d failed: %s", ws.slot, ev.msg.Error)
	default:
		return fmt.Errorf("dist: unexpected %s frame from worker %d", ev.msg.Type, ws.slot)
	}
	return nil
}

// reserveScratch holds the scratch a worker declares as a child
// reservation of the coordinator's governor, re-reserving when a later
// declaration is larger.
func (c *coordinator) reserveScratch(ws *workerState, declared int64) error {
	if declared <= ws.res.Amount() {
		return nil
	}
	ws.res.Close()
	ws.res = nil
	res, err := c.opts.Gov.Reserve(declared)
	if err != nil {
		return fmt.Errorf("dist: worker %d scratch admission: %w", ws.slot, err)
	}
	ws.res = res
	return nil
}

// handleDeath revokes a dead worker's lease, returns its scratch
// reservation, and respawns the slot.
func (c *coordinator) handleDeath(ws *workerState, reason string) error {
	c.deaths++
	// Exec close reaps the child without blocking dispatch; the run
	// joins these before returning so no close outlives the coordinator.
	c.reaps.Add(1)
	conn := ws.conn
	go func() {
		defer c.reaps.Done()
		_ = conn.Close() //nolint:cleanuperr the worker is already dead; the close exists to reap it
	}()
	if ws.res != nil {
		ws.res.Close()
		ws.res = nil
	}
	if ws.lease != nil && c.table != nil {
		if c.table.Release(ws.lease.ID, reason, time.Now()) {
			c.recordReleases()
		}
		ws.lease = nil
	}
	if c.deaths > c.opts.MaxDeaths {
		return fmt.Errorf("dist: %d worker deaths (limit %d); last: %s",
			c.deaths, c.opts.MaxDeaths, reason)
	}
	if err := c.startWorker(ws.slot); err != nil {
		return err
	}
	return nil
}

// expireLeases sweeps overdue leases: each one's shard returns to the
// pool, the overdue worker is killed (its late result must classify as
// stale, and SIGKILL guarantees no further writes), and the slot is
// respawned.
func (c *coordinator) expireLeases() error {
	if c.table == nil {
		return nil
	}
	expired := c.table.Expire(time.Now())
	if len(expired) == 0 {
		return nil
	}
	c.recordReleases()
	for _, l := range expired {
		ws := c.ws[l.Worker]
		if ws == nil || ws.lease == nil || ws.lease.ID != l.ID {
			continue
		}
		ws.lease = nil
		_ = c.opts.Transport.Kill(ws.slot)
		if err := c.handleDeath(ws, "lease expired"); err != nil {
			return err
		}
	}
	c.assignAll()
	return nil
}

// recordReleases syncs the run-wide release history from the current
// table (idempotent: the table's history is authoritative per level).
func (c *coordinator) recordReleases() {
	if c.table == nil {
		return
	}
	rel := c.table.Releases()
	// Replace this level's slice suffix: count entries from this level.
	base := 0
	for _, r := range c.releases {
		if r.Level != c.level {
			base++
		}
	}
	c.releases = append(c.releases[:base], rel...)
}

// assign hands an idle, ready worker the next pending shard.
func (c *coordinator) assign(ws *workerState) {
	if c.table == nil || !ws.ready || ws.lease != nil {
		return
	}
	l, ok := c.table.Acquire(ws.slot, time.Now())
	if !ok {
		return
	}
	ws.lease = &l
	err := ws.conn.Send(&Msg{
		Type:       MsgLease,
		LeaseID:    l.ID,
		K:          c.level,
		Shard:      c.levelShards[l.Shard],
		ShardIndex: l.Shard,
		Attempt:    l.Attempt,
		Target:     c.target,
		Collect:    c.collect,
	})
	if err != nil {
		// The pump will also observe the break; revoking here just gets
		// the shard back into the pool sooner.
		_ = c.table.Release(l.ID, fmt.Sprintf("worker %d send failed: %v", ws.slot, err), time.Now())
		c.recordReleases()
		ws.lease = nil
	}
}

func (c *coordinator) assignAll() {
	for _, ws := range c.ws {
		if ws != nil {
			c.assign(ws)
		}
	}
}

func (c *coordinator) shutdownWorkers() {
	for _, ws := range c.ws {
		if ws == nil {
			continue
		}
		_ = ws.conn.Send(&Msg{Type: MsgShutdown})
		_ = ws.conn.Close() //nolint:cleanuperr best-effort teardown; the run is already decided
		if ws.res != nil {
			ws.res.Close()
			ws.res = nil
		}
	}
}
