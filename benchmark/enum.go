package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro"
	"repro/internal/graph"
)

// The five enumeration workloads.  Repetition counts are those of the full
// recorded run; a time-bounded run interleaves the same repetitions until
// its budget is used.

// cInput is a generated graph with its file and its reference.
type cInput struct {
	g    graph.Interface
	file string
	ref  *reference
}

// prepareC generates graph C at the given scale (the tiny plan shrinks it
// to a few hundred vertices), writes it as an edge list and computes the
// reference for the lower bounds in los.
func prepareC(e *env, seed int64, p plan, scale float64, los ...int) (*cInput, error) {
	if p.tiny {
		scale = 0.06
	}
	g := buildC(scale, seed)
	dir, err := e.dir("input")
	if err != nil {
		return nil, err
	}
	in := &cInput{g: g, file: filepath.Join(dir, "c.el")}
	if err := writeEdgeList(in.file, g); err != nil {
		return nil, err
	}
	if in.ref, err = computeReference(e.ctx, g, los); err != nil {
		return nil, err
	}
	return in, nil
}

// facadeRep is one in-process run through the repro facade with the
// hashing reporter, checked against the reference.
func facadeRep(e *env, in *cInput, dig *digester, opts ...repro.Option) (repOut, error) {
	runtime.GC()
	dig.reset()
	var st repro.Stats
	opts = append([]repro.Option{repro.WithBounds(3, 0), repro.WithStats(&st)}, opts...)
	start := time.Now()
	_, err := repro.NewEnumerator(opts...).Run(e.ctx, in.g, dig)
	wall := time.Since(start)
	if err != nil {
		return repOut{}, err
	}
	if !in.ref.matches(3, dig) {
		return repOut{}, fmt.Errorf("%s: stream of %d cliques does not match the reference (%d)", st.Backend, dig.count, in.ref.byLo[3].count)
	}
	return repOut{
		start:   start,
		wall:    wall.Seconds(),
		ttfc:    dig.first.Sub(start).Seconds(),
		govPeak: st.PeakBytes,
		spill:   st.SpillBytesWritten,
		stats:   st,
	}, nil
}

// withSpillDir runs fn with a fresh spill directory under the temp root
// and removes it afterwards; a directory that cannot be removed would
// skew every later repetition, so that is an error.
func withSpillDir(e *env, fn func(dir string) (repOut, error)) (repOut, error) {
	dir, err := e.dir("spill")
	if err != nil {
		return repOut{}, err
	}
	out, err := fn(dir)
	return out, errors.Join(err, os.RemoveAll(dir))
}

// ---- 1. incore-c75 ----

type incoreC75 struct {
	in  *cInput
	dig *digester
}

func (w *incoreC75) name() string { return "incore-c75" }

func (w *incoreC75) setup(e *env, seed int64, p plan) (err error) {
	w.dig = newDigester()
	w.in, err = prepareC(e, seed, p, c75Scale, 3)
	return err
}

func (w *incoreC75) rep(e *env, workers int) (repOut, error) {
	var opts []repro.Option
	if workers > 1 {
		opts = append(opts, repro.WithWorkers(workers), repro.WithStrategy(repro.Affinity))
	}
	return facadeRep(e, w.in, w.dig, opts...)
}

func (w *incoreC75) measure(e *env, p plan, r *result) error {
	return runInterleaved(e, p, 30, r, func(workers int) (repOut, error) { return w.rep(e, workers) })
}

func (w *incoreC75) close() error { return nil }

// ---- 2. cli-sparse20k ----

type cliSparse20k struct {
	file string
	ref  *reference
}

func (w *cliSparse20k) name() string { return "cli-sparse20k" }

func (w *cliSparse20k) setup(e *env, seed int64, p plan) error {
	n, m := s20kN, s20kM
	if p.tiny {
		n, m = 200, 900
	}
	dir, err := e.dir("input")
	if err != nil {
		return err
	}
	w.file = filepath.Join(dir, "s.el")
	if err := writeEdgeList(w.file, buildSparse(n, m, seed)); err != nil {
		return err
	}
	// The reference is computed on the graph as the program will see it:
	// read back from the file, in the representation the density picks.
	g, err := loadGraph(w.file)
	if err != nil {
		return err
	}
	w.ref, err = computeReference(e.ctx, g, []int{3})
	return err
}

func loadGraph(path string) (g repro.GraphInterface, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return repro.ReadGraph(f, repro.FormatAuto, repro.Auto)
}

// checkCliquer turns what a cliquer child printed into a repOut, failing
// when the clique lines do not hash to the reference.
func checkCliquer(c *cliquerRun, ref *reference) (repOut, error) {
	if !ref.matches(3, c.dig) {
		return repOut{}, fmt.Errorf("cliquer printed %d cliques that do not match the reference (%d)", c.dig.count, ref.byLo[3].count)
	}
	return repOut{wall: c.wall, ttfc: c.ttfc(), govPeak: c.govPeak, rssMB: c.rssMB, spill: c.spill}, nil
}

func (w *cliSparse20k) rep(e *env, workers int) (repOut, error) {
	c, err := runCliquer(e.ctx, e.cliquer, "-workers", strconv.Itoa(workers), w.file)
	if err != nil {
		return repOut{}, err
	}
	return checkCliquer(c, w.ref)
}

func (w *cliSparse20k) measure(e *env, p plan, r *result) error {
	return runInterleaved(e, p, 12, r, func(workers int) (repOut, error) { return w.rep(e, workers) })
}

func (w *cliSparse20k) close() error { return nil }

// ---- 3. ooc-c75 ----

type oocC75 struct {
	in  *cInput
	dig *digester
}

func (w *oocC75) name() string { return "ooc-c75" }

func (w *oocC75) setup(e *env, seed int64, p plan) (err error) {
	w.dig = newDigester()
	w.in, err = prepareC(e, seed, p, c75Scale, 3)
	return err
}

// rep runs the out-of-core backend on raw (fixed-width) shards.
func (w *oocC75) rep(e *env, workers int, knobs ...repro.OutOfCoreOption) (repOut, error) {
	return withSpillDir(e, func(dir string) (repOut, error) {
		knobs = append([]repro.OutOfCoreOption{repro.OOCWorkers(workers)}, knobs...)
		return facadeRep(e, w.in, w.dig, repro.WithOutOfCore(dir, 0, knobs...))
	})
}

func (w *oocC75) measure(e *env, p plan, r *result) error {
	return runInterleaved(e, p, 9, r, func(workers int) (repOut, error) { return w.rep(e, workers) })
}

func (w *oocC75) close() error { return nil }

// ---- 4. hybrid-c75 ----

type hybridC75 struct {
	in     *cInput
	dig    *digester
	budget int64 // a quarter of the sequential in-core governor peak
}

func (w *hybridC75) name() string { return "hybrid-c75" }

func (w *hybridC75) setup(e *env, seed int64, p plan) (err error) {
	w.dig = newDigester()
	if w.in, err = prepareC(e, seed, p, c75Scale, 3); err != nil {
		return err
	}
	w.budget = w.in.ref.peak / 4
	return nil
}

// rep starts in core under a quarter of the memory the run needs, so the
// governor trips mid-run and the rest goes through compressed shards.
func (w *hybridC75) rep(e *env, workers int, extra ...repro.Option) (repOut, error) {
	return withSpillDir(e, func(dir string) (repOut, error) {
		opts := []repro.Option{repro.WithMemoryBudget(w.budget), repro.WithSpillover(dir, repro.OOCCompress())}
		if workers > 1 {
			opts = append(opts, repro.WithWorkers(workers))
		}
		return facadeRep(e, w.in, w.dig, append(opts, extra...)...)
	})
}

func (w *hybridC75) measure(e *env, p plan, r *result) error {
	return runInterleaved(e, p, 15, r, func(workers int) (repOut, error) { return w.rep(e, workers) })
}

func (w *hybridC75) close() error { return nil }

// ---- 5. dist-c75 ----

type distC75 struct {
	in *cInput
}

func (w *distC75) name() string { return "dist-c75" }

func (w *distC75) setup(e *env, seed int64, p plan) (err error) {
	w.in, err = prepareC(e, seed, p, c75Scale, 3)
	return err
}

// rep runs the distributed coordinator as a cliquer child that spawns its
// worker processes itself (exec/pipe transport).
func (w *distC75) rep(e *env, workers int, extra ...string) (*cliquerRun, repOut, error) {
	var c *cliquerRun
	out, err := withSpillDir(e, func(dir string) (repOut, error) {
		args := append([]string{"-dist", strconv.Itoa(workers), "-ooc", dir}, extra...)
		var err error
		if c, err = runCliquer(e.ctx, e.cliquer, append(args, w.in.file)...); err != nil {
			return repOut{}, err
		}
		if c.releases != 0 || c.deaths != 0 {
			return repOut{}, fmt.Errorf("dist run re-leased %d shards and lost %d workers; a fault-free run has none", c.releases, c.deaths)
		}
		return checkCliquer(c, w.in.ref)
	})
	return c, out, err
}

func (w *distC75) measure(e *env, p plan, r *result) error {
	return runInterleaved(e, p, 9, r, func(workers int) (repOut, error) {
		_, out, err := w.rep(e, workers)
		return out, err
	})
}

func (w *distC75) close() error { return nil }
