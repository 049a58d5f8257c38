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

	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/ooc"
)

// GraphFileName is the shared edge-list file the coordinator writes
// into the run directory for workers to load.
const GraphFileName = "dist-graph.el"

// ReportName is the coordinator's final run report — the distributed
// counterpart of the retired checkpoint manifest, kept after success so
// operators (and the kill-a-worker smoke test) can audit the run's
// re-lease history.
const ReportName = "dist-manifest.json"

// coordinatorRole tags the checkpoints and the report this process
// writes.
const coordinatorRole = "coordinator"

// Stats reports a distributed run: the level driver's counters plus the
// lease scheduler's.
type Stats struct {
	ooc.Stats
	Workers      int
	Releases     int // leases revoked (expiry or death) and re-run
	WorkerDeaths int
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

// coordinator is the lease scheduler: the ShardRunner that joins a
// level's shards on worker processes.  The level loop around it is
// ooc.Loop's; what lives here is the lease table, the worker slots with
// their heartbeats, deaths and scratch reservations, and the audit
// report.
type coordinator struct {
	cfg       enumcfg.Config // Workers = DistWorkers; Dir, Ctx, DistLeaseTimeout
	gov       *membudget.Governor
	transport Transport
	events    chan event
	done      chan struct{}  // closed at run end; unblocks parked pumps
	reaps     sync.WaitGroup // in-flight async conn closes; joined at run end
	ws        []*workerState
	gens      []int // per-slot dial generation, monotonic across respawns

	// The level in flight (nil between levels).
	table   *LeaseTable
	lv      *ooc.Level
	deliver func(shard int, res ooc.ShardResult)

	// heartbeat is the worker liveness beacon period: DistLeaseTimeout/8,
	// clamped to [100ms, 1s].  maxDeaths fails the run after that many
	// worker deaths, 2*Workers+2: fault tolerance must not hide a
	// systematically crashing worker binary behind infinite respawns.
	heartbeat time.Duration
	maxDeaths int

	deaths   int
	releases []ooc.ReleaseRecord // of the levels already run
}

// Enumerate runs the distributed enumeration cfg describes — a config
// whose Backend is Distributed — and returns its statistics: the
// coordinator owns the run directory Dir (graph file, level shards,
// checkpoint manifest and final report all live there), DistWorkers
// worker slots own shard joins, and the merged stream obeys the same
// order law as every other backend.  h's Reporter, OnLevel and Gov are
// as for ooc.NewLoop; Gov is the run's single accounting authority, and
// each worker's declared scratch is held as a child reservation of it
// for the worker's lifetime.  An overdue lease (DistLeaseTimeout) is
// revoked, its worker killed, and the shard re-leased.  t connects the
// worker slots; nil means the exec/pipe transport spawning
// DistWorkerCmd (or this binary with -worker).
func Enumerate(g graph.Interface, cfg enumcfg.Config, h core.Hooks, t Transport) (Stats, error) {
	if err := cfg.Normalize(); err != nil {
		return Stats{}, fmt.Errorf("dist: %w", err)
	}
	if b := cfg.Backend(); b != enumcfg.Distributed {
		return Stats{}, fmt.Errorf("dist: the config selects the %s backend", b)
	}
	if t == nil {
		t = &ExecTransport{Command: cfg.DistWorkerCmd}
	}
	// The level driver's copy: one shard joiner per worker slot, and the
	// coordinator's own per-level checkpoint.
	cfg.Workers, cfg.Checkpoint = cfg.DistWorkers, true
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return Stats{}, err
	}
	if ooc.HasManifest(cfg.Dir) {
		return Stats{}, fmt.Errorf("dist: %s already holds a checkpoint; Resume or remove it", cfg.Dir)
	}
	c := &coordinator{
		cfg:       cfg,
		gov:       h.Gov,
		transport: t,
		events:    make(chan event, 4*cfg.Workers+4),
		done:      make(chan struct{}),
		ws:        make([]*workerState, cfg.Workers),
		gens:      make([]int, cfg.Workers),

		heartbeat: min(max(cfg.DistLeaseTimeout/8, 100*time.Millisecond), time.Second),
		maxDeaths: 2*cfg.Workers + 2,
	}
	loop := ooc.NewLoop(g, cfg, h, coordinatorRole)
	loop.Releases = func() []ooc.ReleaseRecord { return c.releases }
	err := c.run(g, loop)
	return Stats{
		Stats:        loop.Stats(),
		Workers:      cfg.Workers,
		Releases:     len(c.releases),
		WorkerDeaths: c.deaths,
	}, err
}

func (c *coordinator) run(g graph.Interface, loop *ooc.Loop) error {
	defer close(c.done) // parked pumps exit once the run is over
	defer c.reaps.Wait()
	defer c.shutdownWorkers()

	// Ship the graph: exec workers share the host filesystem, so bulk
	// data (graph, shards) moves through the run directory and only
	// metadata crosses the wire.
	if err := c.writeGraph(g); err != nil {
		return err
	}
	for i := range c.ws {
		if err := c.startWorker(i); err != nil {
			return err
		}
	}
	// The seed level is built and written by the level loop in this
	// process while the workers load the graph; every later level is
	// assembled from worker output shards.
	st, err := loop.RunSeed(c)
	if err != nil {
		return err
	}
	// The checkpoint is retired; what stays is the audit report.
	if err := os.Remove(filepath.Join(c.cfg.Dir, GraphFileName)); err != nil {
		return err
	}
	return c.writeReport(st, loop.Fingerprint())
}

func (c *coordinator) writeGraph(g graph.Interface) error {
	f, err := os.Create(filepath.Join(c.cfg.Dir, GraphFileName))
	if err != nil {
		return fmt.Errorf("dist: write graph: %w", err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		return fmt.Errorf("dist: write graph: %w", errors.Join(err, f.Close()))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dist: write graph: %w", err)
	}
	return nil
}

func (c *coordinator) writeReport(st ooc.Stats, fp string) error {
	data, err := json.MarshalIndent(&Report{
		Owner:        ooc.SelfOwner(coordinatorRole),
		Workers:      c.cfg.Workers,
		Levels:       st.Levels,
		Maximal:      st.Maximal,
		Shards:       st.Shards,
		WorkerDeaths: c.deaths,
		Releases:     append([]ooc.ReleaseRecord{}, c.releases...),
		GraphHash:    fp,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("dist: encode report: %w", err)
	}
	tmp := filepath.Join(c.cfg.Dir, ReportName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("dist: write report: %w", err)
	}
	return os.Rename(tmp, filepath.Join(c.cfg.Dir, ReportName))
}

// startWorker dials a slot and sends init.  The worker becomes
// assignable when its ready frame arrives through the event loop.
func (c *coordinator) startWorker(slot int) error {
	conn, err := c.transport.Dial(c.cfg.Ctx, slot)
	if err != nil {
		return fmt.Errorf("dist: dial worker %d: %w", slot, err)
	}
	c.gens[slot]++
	ws := &workerState{slot: slot, gen: c.gens[slot], conn: conn}
	c.ws[slot] = ws
	if err := conn.Send(&Msg{
		Type:      MsgInit,
		Dir:       c.cfg.Dir,
		GraphPath: GraphFileName,
		WorkerID:  fmt.Sprintf("worker-%d", slot),
		PingMS:    c.heartbeat.Milliseconds(),
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

// RunLevel joins one level's shards across the workers: lease each
// shard, deliver each accepted result, re-lease what a death or an
// expiry takes back.
//
//repro:ctxloop
func (c *coordinator) RunLevel(ctx context.Context, lv *ooc.Level, deliver func(shard int, res ooc.ShardResult)) error {
	c.lv, c.deliver = lv, deliver
	c.table = NewLeaseTable(lv.K, lv.Shards, c.cfg.DistLeaseTimeout)
	defer func() {
		c.releases = append(c.releases, c.table.Releases()...)
		c.table = nil
	}()

	c.assignAll()
	tick := time.NewTicker(c.heartbeat)
	defer tick.Stop()
	for !c.table.Done() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dist: canceled during level %d->%d: %w", lv.K, lv.K+1, err)
		}
		select {
		case <-ctx.Done():
			// Observed at the top of the next iteration.
		case ev := <-c.events:
			if err := c.handleEvent(ev); err != nil {
				return err
			}
		case <-tick.C:
			if err := c.expireLeases(); err != nil {
				return err
			}
		}
	}
	return nil
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
		// The joiner's scratch grows with the level (one memo row per
		// prefix vertex) and the widest p0 group; the reservation follows
		// it.
		if err := c.reserveScratch(ws, ev.msg.ScratchBytes); err != nil {
			return err
		}
		shard, status := c.table.Complete(ev.msg.LeaseID, now)
		if ws.lease != nil && ws.lease.ID == ev.msg.LeaseID {
			ws.lease = nil
		}
		// Only the accepted delivery counts.  A duplicate's files are the
		// accepted ones; a stale delivery's (its lease was superseded
		// before the result arrived) are orphans under names no other
		// attempt uses, which the level loop sweeps at the boundary.
		if status == Accepted {
			m := ev.msg
			c.lv.Read(m.BytesRead)
			if err := c.lv.Wrote(ooc.LevelBytes(m.Out)); err != nil {
				return err
			}
			c.deliver(shard, ooc.ShardResult{
				JoinStats: ooc.JoinStats{Maximal: m.Maximal, Dropped: m.Dropped, Cost: m.Cost,
					EmitVerts: m.EmitVerts, EmitOff: m.EmitOff, BytesRead: m.BytesRead},
				Out: m.Out,
			})
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
	res, err := c.gov.Reserve(declared)
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
	if ws.lease != nil {
		c.table.Release(ws.lease.ID, reason, time.Now())
		ws.lease = nil
	}
	if c.deaths > c.maxDeaths {
		return fmt.Errorf("dist: %d worker deaths (limit %d); last: %s",
			c.deaths, c.maxDeaths, reason)
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
	expired := c.table.Expire(time.Now())
	for _, l := range expired {
		ws := c.ws[l.Worker]
		if ws == nil || ws.lease == nil || ws.lease.ID != l.ID {
			continue
		}
		ws.lease = nil
		_ = c.transport.Kill(ws.slot)
		if err := c.handleDeath(ws, "lease expired"); err != nil {
			return err
		}
	}
	if len(expired) > 0 {
		c.assignAll()
	}
	return nil
}

// assign hands an idle, ready worker the next pending shard.
func (c *coordinator) assign(ws *workerState) {
	if !ws.ready || ws.lease != nil {
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
		K:          c.lv.K,
		Shard:      c.lv.Shards[l.Shard],
		ShardIndex: l.Shard,
		Attempt:    l.Attempt,
		Target:     c.lv.Target,
		Collect:    c.lv.Collect,
	})
	if err != nil {
		// The pump will also observe the break; revoking here just gets
		// the shard back into the pool sooner.
		_ = c.table.Release(l.ID, fmt.Sprintf("worker %d send failed: %v", ws.slot, err), time.Now())
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
