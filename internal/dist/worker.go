package dist

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/ooc"
)

// WorkerEnabled reports whether this process was spawned as a dist
// worker (the exec transport's environment marker).  Binaries check it
// before parsing flags and hand the process to WorkerMain.
func WorkerEnabled() bool { return os.Getenv(EnvWorker) == "1" }

// WorkerMain serves the wire protocol over stdin/stdout and exits the
// process: 0 on a clean shutdown, 1 on error.  It is the entire main()
// of a worker-mode process.
func WorkerMain() {
	conn := NewPipeConn(os.Stdin, os.Stdout, nil)
	if err := ServeWorker(context.Background(), conn); err != nil {
		fmt.Fprintf(os.Stderr, "dist worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// lockedConn serializes sends between the worker's main loop and its
// heartbeat goroutine.
type lockedConn struct {
	mu sync.Mutex
	c  Conn
}

func (l *lockedConn) send(m *Msg) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.Send(m)
}

// ServeWorker runs one worker session: receive init, load the shared
// graph, declare scratch, then join leased shards until shutdown.  The
// same function serves an exec'd child (over stdin/stdout) and a
// loopback goroutine (over in-process pipes), so the protocol has
// exactly one implementation.
//
//repro:ctxloop
func ServeWorker(ctx context.Context, conn Conn) error {
	init, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("dist: worker awaiting init: %w", err)
	}
	if init.Type != MsgInit {
		return fmt.Errorf("dist: worker expected init, got %s", init.Type)
	}
	f, err := os.Open(filepath.Join(init.Dir, init.GraphPath))
	if err != nil {
		return fmt.Errorf("dist: worker graph: %w", err)
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("dist: worker graph: %w", err)
	}
	join := ooc.NewJoiner(g)
	// The worker's local governor only meters transient I/O buffers;
	// global accounting lives with the coordinator, which reserved this
	// worker's declared scratch from the single authoritative governor.
	gov := membudget.New(0)
	self := ooc.SelfOwner(init.WorkerID)
	out := &lockedConn{c: conn}
	if err := out.send(&Msg{
		Type:         MsgReady,
		ScratchBytes: join.ScratchBytes(),
		Host:         self.Host,
		PID:          self.PID,
	}); err != nil {
		return err
	}

	// Liveness beacon: independent of join progress, so a long join does
	// not read as death.  Every beacon extends the lease, which runs out
	// only once the process falls silent; a dead process breaks the pipe.
	ping := 500 * time.Millisecond
	if init.PingMS > 0 {
		ping = time.Duration(init.PingMS) * time.Millisecond
	}
	stopPing := make(chan struct{})
	defer close(stopPing)
	go func() {
		t := time.NewTicker(ping)
		defer t.Stop()
		for {
			select {
			case <-stopPing:
				return
			case <-t.C:
				if out.send(&Msg{Type: MsgHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		m, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("dist: worker receive: %w", err)
		}
		switch m.Type {
		case MsgShutdown:
			return nil
		case MsgHeartbeat:
			// Coordinator ping; our own beacon already answers liveness.
		case MsgLease:
			res, jerr := joinLease(ctx, join, gov, init, m)
			if jerr != nil {
				// A join error is fatal for this worker: report it so
				// the coordinator can fail fast (a transport break alone
				// would look like a crash and trigger pointless retry).
				_ = out.send(&Msg{Type: MsgError, LeaseID: m.LeaseID, Error: jerr.Error()})
				return fmt.Errorf("dist: worker join: %w", jerr)
			}
			if err := out.send(res); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: worker got unexpected %s frame", m.Type)
		}
	}
}

// joinLease executes one lease through the same Joiner.Join the
// single-machine pool runs.  Output shard names embed the shard index
// and lease attempt — the uniqueness that makes re-execution of an
// expired lease collision-free by construction.  Bytes are accounted by
// the coordinator when it accepts the result, not here.
func joinLease(ctx context.Context, join *ooc.Joiner, gov *membudget.Governor,
	init *Msg, m *Msg) (*Msg, error) {
	seq := 0
	res, err := join.Join(ctx, &ooc.ShardJob{
		Dir:     init.Dir,
		K:       m.K,
		In:      m.Shard,
		Target:  m.Target,
		Collect: m.Collect,
		Gov:     gov,
		NewShard: func() (string, error) {
			seq++
			return ooc.ShardFileName(m.K+1,
				fmt.Sprintf("s%05d-a%02d-%03d", m.ShardIndex, m.Attempt, seq)), nil
		},
		OnWrite: func(enc, raw int64) error { return nil },
	})
	if err != nil {
		return nil, err
	}
	return &Msg{
		Type:         MsgResult,
		LeaseID:      m.LeaseID,
		Out:          res.Out,
		Maximal:      res.Maximal,
		Dropped:      res.Dropped,
		Cost:         res.Cost,
		EmitVerts:    res.EmitVerts,
		EmitOff:      res.EmitOff,
		BytesRead:    res.BytesRead,
		ScratchBytes: join.ScratchBytes(),
	}, nil
}
