package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/ooc"
)

// trace runs the distributed coordinator once with -stats: the child
// prints one line per level on stderr as the level completes, and the
// spans are the intervals between those lines as the benchmark read them
// — start-up (exec to the graph header), one span per level, and the
// shutdown after the last level.
func (w *distC75) trace(e *env, p plan, base, r *result) error {
	l := r.layer
	tr := newTracer(traceID(w.name()))
	c, _, err := w.rep(e, 1, "-stats")
	if err != nil {
		return err
	}
	finish := c.start.Add(time.Duration(c.wall * float64(time.Second)))
	root := tr.add(0, layerHarness, "run", c.start, finish)
	prev := c.start
	if !c.headerAt.IsZero() {
		tr.add(root, "cliquer", "cliquer.startup", prev, c.headerAt)
		prev = c.headerAt
	}
	for _, at := range c.levelAt {
		tr.add(root, "dist", "dist.level", prev, at)
		prev = at
	}
	tr.add(root, "dist", "dist.shutdown", prev, finish)
	if err := finishTrace(e, tr, w.name(), base, r); err != nil {
		return err
	}
	l["dist.peak_level_s"] = tr.maxByName("dist.level")
	l["dist.releases"] = float64(c.releases)
	l["dist.deaths"] = float64(c.deaths)

	// The floor of a distributed run: spawn, handshake and manifest
	// commits on a graph with next to no work.
	small, err := smallGraphFile(e)
	if err != nil {
		return err
	}
	var fixed []float64
	for i := 0; i < 3; i++ {
		out, err := withSpillDir(e, func(dir string) (repOut, error) {
			c, err := runCliquer(e.ctx, e.cliquer, "-dist", "1", "-ooc", dir, small)
			if err != nil {
				return repOut{}, err
			}
			return repOut{wall: c.wall}, nil
		})
		if err != nil {
			return err
		}
		fixed = append(fixed, out.wall)
	}
	l["dist.fixed_s"] = median(fixed)

	// The same join without the distribution: the out-of-core backend in
	// this process, one worker, raw shards.
	var oocWall []float64
	single := &oocC75{in: w.in, dig: newDigester()}
	for i := 0; i < 2; i++ {
		out, err := single.rep(e, 1)
		if err != nil {
			return err
		}
		oocWall = append(oocWall, out.wall)
		if p.tiny {
			break
		}
	}
	if wall, ok := base.value("wall_s"); ok {
		l["dist.over_ooc_s"] = wall - median(oocWall)
	}

	leaseLayer(l)
	return wireLayer(l)
}

// leaseLayer times one lease round in the coordinator's table: Acquire
// and Complete, per shard.
func leaseLayer(l map[string]float64) {
	const shards = 1024
	metas := make([]ooc.ShardMeta, shards)
	for i := range metas {
		metas[i].Path = ooc.ShardFileName(5, fmt.Sprintf("%06d", i))
	}
	now := time.Now()
	l["dist.lease_ns"] = perOp(func() {
		t := dist.NewLeaseTable(5, metas, 30*time.Second)
		for {
			ls, ok := t.Acquire(0, now)
			if !ok {
				break
			}
			t.Complete(ls.ID, now)
		}
	}) / shards
}

// wireLayer times one frame round trip of the worker protocol over a pair
// of OS pipes, with a lease-sized frame each way.
func wireLayer(l map[string]float64) error {
	toR, toW, err := os.Pipe()
	if err != nil {
		return err
	}
	fromR, fromW, err := os.Pipe()
	if err != nil {
		return errors.Join(err, toR.Close(), toW.Close())
	}
	echoed := make(chan error, 1)
	go func() { echoed <- echoFrames(toR, fromW) }()

	frame := &dist.Msg{
		Type: "lease", LeaseID: 42, K: 7, ShardIndex: 3, Attempt: 1, Target: 1 << 20, Collect: true,
		Shard: ooc.ShardMeta{Path: ooc.ShardFileName(7, "000123"), Records: 100000, Runs: 9000, Bytes: 2800007, RawBytes: 2800000},
	}
	var rtErr error
	ns := perOp(func() {
		if rtErr != nil {
			return
		}
		if rtErr = dist.WriteMsg(toW, frame); rtErr == nil {
			_, rtErr = dist.ReadMsg(fromR)
		}
	})
	l["dist.wire_rtt_us"] = ns / 1e3
	// Closing the write end is what ends the echo loop.
	return errors.Join(rtErr, toW.Close(), <-echoed, toR.Close(), fromR.Close())
}

// echoFrames sends every frame it reads straight back, until the reader's
// peer closes its end.
func echoFrames(r io.Reader, w io.WriteCloser) error {
	for {
		m, err := dist.ReadMsg(r)
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return errors.Join(err, w.Close())
		}
		if err := dist.WriteMsg(w, m); err != nil {
			return errors.Join(err, w.Close())
		}
	}
}
