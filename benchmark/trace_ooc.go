package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/ooc"
)

// oocCounts is what the benchmark-driven shard loop observed.
type oocCounts struct {
	readBytes, writeBytes  int64
	shards, records, level int64
	peak                   []ooc.ShardMeta // the largest level, kept on disk
	peakK                  int
}

// shardNamer hands out shard file names in sequence.
type shardNamer struct{ seq int }

func (s *shardNamer) next(k int) func() (string, error) {
	return func() (string, error) {
		s.seq++
		return ooc.ShardFileName(k, fmt.Sprintf("%06d", s.seq)), nil
	}
}

func removeShards(dir string, shards []ooc.ShardMeta) error {
	for _, s := range shards {
		if err := os.Remove(filepath.Join(dir, s.Path)); err != nil {
			return err
		}
	}
	return nil
}

// drivenOOC is the out-of-core enumeration with the level loop taken over
// by the benchmark: ooc.WriteLevel(EdgeFeed) spills the edges, then every
// shard of every level is read with os.ReadFile and joined through
// Joiner.JoinShardBytes into a LevelWriter, with a span around each step.
// It is the engine's loop at one worker without its read-ahead, so the
// difference to the real engine's wall is what the engine adds or hides.
// The largest level is left on disk for the codec passes.
func drivenOOC(ctx context.Context, tr *tracer, root int, g graph.Interface, dir string, dig *digester) (oocCounts, error) {
	var oc oocCounts
	gov := membudget.New(0)
	names := &shardNamer{}
	onWrite := func(enc, raw int64) error { oc.writeBytes += enc; return nil }

	id := tr.start(root, "ooc", "ooc.seed_write")
	shards, err := ooc.WriteLevel(dir, 2, false, ooc.DefaultShardTarget(8*int64(g.M()), 1), gov, names.next(2), onWrite, ooc.EdgeFeed(ctx, g))
	tr.end(id)
	if err != nil {
		return oc, err
	}
	joiner := ooc.NewJoiner(g)
	var emit clique.Clique
	for k := 2; ooc.LevelRecords(shards) > 0; k++ {
		oc.level++
		oc.records += ooc.LevelRecords(shards)
		oc.shards += int64(len(shards))
		enc, _ := ooc.LevelBytes(shards)
		target := ooc.DefaultShardTarget(enc, 1)
		var next []ooc.ShardMeta
		for _, sh := range shards {
			if err := ctx.Err(); err != nil {
				return oc, err
			}
			id := tr.start(root, "ooc", "ooc.shard_read")
			data, err := os.ReadFile(filepath.Join(dir, sh.Path))
			tr.end(id)
			if err != nil {
				return oc, err
			}
			oc.readBytes += int64(len(data))

			id = tr.start(root, "ooc", "ooc.join_write")
			out := ooc.NewLevelWriter(dir, k+1, false, target, gov, names.next(k+1), onWrite)
			js, err := joiner.JoinShardBytes(ctx, data, sh, k, false, out, true)
			if err != nil {
				tr.end(id)
				return oc, fmt.Errorf("%w (abort: %v)", err, out.Abort())
			}
			metas, err := out.Finish()
			tr.end(id)
			if err != nil {
				return oc, err
			}
			next = append(next, metas...)

			id = tr.start(root, "reporter", "ooc.emit")
			off := int32(0)
			for _, end := range js.EmitOff {
				emit = append(emit[:0], js.EmitVerts[off:end]...)
				dig.Emit(emit)
				off = end
			}
			tr.end(id)
		}
		// Retire the consumed level, except that the largest one so far
		// stays for the decode and encode passes.
		id = tr.start(root, "ooc", "ooc.remove")
		retire := shards
		if ooc.LevelRecords(shards) > ooc.LevelRecords(oc.peak) {
			retire, oc.peak, oc.peakK = oc.peak, shards, k
		}
		err := removeShards(dir, retire)
		tr.end(id)
		if err != nil {
			return oc, err
		}
		shards = next
	}
	return oc, removeShards(dir, shards)
}

// codecPasses times the record codec alone on the largest level, for the
// raw and for the compressed encoding: an encode-only pass
// (LevelWriter.Write of every record, fed from memory) and a decode-only
// pass (OpenShardBytes + ShardReader.Next over every record, the file
// already read).
func codecPasses(ctx context.Context, g graph.Interface, dir string, peak []ooc.ShardMeta, k int, l map[string]float64) error {
	gov := membudget.New(0)
	names := &shardNamer{seq: 1 << 20}
	rec := make([]uint32, k)

	var flat []uint32
	for _, sh := range peak {
		rd, err := ooc.OpenShard(dir, sh, k, g.N(), false, gov)
		if err != nil {
			return err
		}
		for err = rd.Next(rec); err == nil; err = rd.Next(rec) {
			flat = append(flat, rec...)
		}
		if cerr := rd.Close(); err != io.EOF || cerr != nil {
			return fmt.Errorf("read level %d: %v, close: %v", k, err, cerr)
		}
	}
	if err := removeShards(dir, peak); err != nil {
		return err
	}
	enc, _ := ooc.LevelBytes(peak)
	target := ooc.DefaultShardTarget(enc, 1)

	for _, codec := range []struct {
		name     string
		compress bool
	}{{"raw", false}, {"cmp", true}} {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		lw := ooc.NewLevelWriter(dir, k, codec.compress, target, gov, names.next(k),
			func(enc, raw int64) error { return nil })
		for i := 0; i < len(flat); i += k {
			if err := lw.Write(flat[i : i+k]); err != nil {
				return fmt.Errorf("%w (abort: %v)", err, lw.Abort())
			}
		}
		shards, err := lw.Finish()
		if err != nil {
			return err
		}
		l["ooc.encode_"+codec.name+"_s"] = time.Since(start).Seconds()

		var decodeS float64
		for _, sh := range shards {
			data, err := os.ReadFile(filepath.Join(dir, sh.Path))
			if err != nil {
				return err
			}
			start := time.Now()
			rd, err := ooc.OpenShardBytes(data, sh, k, g.N(), codec.compress)
			if err != nil {
				return err
			}
			for err = rd.Next(rec); err == nil; err = rd.Next(rec) {
			}
			decodeS += time.Since(start).Seconds()
			if cerr := rd.Close(); err != io.EOF || cerr != nil {
				return fmt.Errorf("decode level %d: %v, close: %v", k, err, cerr)
			}
		}
		l["ooc.decode_"+codec.name+"_s"] = decodeS
		if err := removeShards(dir, shards); err != nil {
			return err
		}
	}
	return nil
}

func (w *oocC75) trace(e *env, p plan, base, r *result) error {
	l := r.layer
	dir, err := e.dir("driven")
	if err != nil {
		return err
	}
	tr := newTracer(traceID(w.name()))
	root := tr.start(0, layerHarness, "run")
	w.dig.reset()
	oc, err := drivenOOC(e.ctx, tr, root, w.in.g, dir, w.dig)
	if err != nil {
		return err
	}
	tr.end(root)
	if err := finishTrace(e, tr, w.name(), base, r); err != nil {
		return err
	}
	if !w.in.ref.matches(3, w.dig) {
		r.op(fmt.Errorf("benchmark-driven shard loop: stream does not match the reference"))
	}
	byName := tr.selfByName()
	l["ooc.seed_write_s"] = byName["ooc.seed_write"]
	l["ooc.shard_read_s"] = byName["ooc.shard_read"]
	l["ooc.join_write_s"] = byName["ooc.join_write"]
	l["ooc.read_mb"] = float64(oc.readBytes) / 1e6
	l["ooc.write_mb"] = float64(oc.writeBytes) / 1e6
	l["ooc.shards"] = float64(oc.shards)
	l["ooc.records"] = float64(oc.records)
	l["ooc.levels"] = float64(oc.level)

	if err := codecPasses(e.ctx, w.in.g, dir, oc.peak, oc.peakK, l); err != nil {
		return err
	}

	// The real engine once more, with an OnLevel observer: its longest level.
	var last time.Time
	peakLevel := 0.0
	run, err := withSpillDir(e, func(dir string) (repOut, error) {
		last = time.Now()
		return facadeRep(e, w.in, w.dig, repro.WithOutOfCore(dir, 0, repro.OOCWorkers(1)),
			repro.WithOnLevel(func(repro.LevelStats) {
				now := time.Now()
				peakLevel = max(peakLevel, now.Sub(last).Seconds())
				last = now
			}))
	})
	if err != nil {
		return err
	}
	l["ooc.peak_level_s"] = peakLevel
	wall := run.wall
	if untraced, ok := base.value("wall_s"); ok {
		wall = untraced
	}
	// Negative means the engine's read-ahead overlap is paying.
	l["ooc.engine_overhead_s"] = wall - l["ooc.seed_write_s"] - l["ooc.shard_read_s"] - l["ooc.join_write_s"]
	return nil
}
