package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/maxclique"
)

// trace replays, in process and with a span around every layer call, the
// pipeline the cliquer child runs on the sparse file: load (parse and
// freeze), maximum-clique bound, seeding at k=3 with the cliques printed
// to a file, and the level loop (nearly empty on this graph).
func (w *cliSparse20k) trace(e *env, p plan, base, r *result) error {
	l := r.layer
	outDir, err := e.dir("print")
	if err != nil {
		return err
	}
	printed, err := os.Create(filepath.Join(outDir, "cliques.txt"))
	if err != nil {
		return err
	}
	out := bufio.NewWriter(printed)
	dig := newDigester()

	tr := newTracer(traceID(w.name()))
	root := tr.start(0, layerHarness, "run")

	id := tr.start(root, "graph", "graph.load")
	g, err := loadGraph(w.file)
	loadS := tr.end(id)
	if err != nil {
		return err
	}

	id = tr.start(root, "maxclique", "maxclique.bound")
	omega := len(maxclique.Find(g))
	l["maxclique.bound_s"] = tr.end(id)

	var names []string
	cc, err := drivenCore(e.ctx, tr, root, g, omega, func(span int, c clique.Clique) {
		id := tr.start(span, "cliquer", "cliquer.print")
		names = names[:0]
		for _, v := range c {
			names = append(names, g.Name(v))
		}
		fmt.Fprintln(out, strings.Join(names, " "))
		dig.Emit(c)
		tr.end(id)
	})
	if err != nil {
		return err
	}
	id = tr.start(root, "cliquer", "cliquer.print")
	err = errors.Join(out.Flush(), printed.Close())
	tr.end(id)
	if err != nil {
		return err
	}
	tr.end(root)
	if err := finishTrace(e, tr, w.name(), base, r); err != nil {
		return err
	}
	if !w.ref.matches(3, dig) {
		r.op(fmt.Errorf("in-process replay of the cliquer pipeline: stream does not match the reference"))
	}
	byName := tr.selfByName()
	l["core.seed_s"] = byName["core.seed"]
	l["core.seed_cands"] = float64(cc.seedCands)
	l["core.step_s"] = byName["core.step"]
	l["core.cands"] = float64(cc.cands)

	start := time.Now()
	if _, _, _, err := core.SeedFromKParallel(g, 3, core.CNStore, maxWorkers, nil); err != nil {
		return err
	}
	l["core.seed_2w_s"] = time.Since(start).Seconds()

	// The graph layer by itself: freeze alone (a builder holding the same
	// edges), so that parse = load - freeze; the fingerprint cliqued adds.
	bld := graph.NewBuilder(g.N())
	graph.ForEachEdge(g, func(u, v int) bool { return bld.AddEdge(u, v) == nil })
	start = time.Now()
	frozen, err := bld.Freeze()
	if err != nil {
		return err
	}
	l["graph.freeze_s"] = time.Since(start).Seconds()
	l["graph.parse_s"] = loadS - l["graph.freeze_s"]
	start = time.Now()
	sink += len(graph.Fingerprint(frozen))
	l["graph.fingerprint_s"] = time.Since(start).Seconds()
	l["graph.bytes"] = float64(g.Bytes())
	if err := rowProbes(l, g); err != nil {
		return err
	}

	return w.cliquerLayer(e, base, l)
}

// rowProbes times the per-representation row operations the join and the
// seeding perform, per call, on rows of the workload graph: the
// maximality probe Row(v).IntersectsWith(cn) on each representation, and
// the CSR row AND that seeding is made of.
func rowProbes(l map[string]float64, g graph.Interface) error {
	n := g.N()
	rows := n
	if rows > 4096 {
		rows = 4096
	}
	// The probe operand is the union of two rows: the shape of a level-2
	// common-neighbor bitmap.
	cn, tmp, dst := bitset.New(n), bitset.New(n), bitset.New(n)
	g.Materialize(7%n, cn)
	g.Materialize(11%n, tmp)
	cn.Or(cn, tmp)
	for _, rep := range []struct {
		name string
		rep  graph.Representation
	}{{"dense", graph.Dense}, {"csr", graph.CSR}, {"wah", graph.Compressed}} {
		gr, err := graph.Convert(g, rep.rep)
		if err != nil {
			return err
		}
		l["graph.row_probe_"+rep.name+"_ns"] = perOp(func() {
			for v := 0; v < rows; v++ {
				if gr.Row(v).IntersectsWith(cn) {
					sink++
				}
			}
		}) / float64(rows)
		if rep.rep == graph.CSR {
			l["graph.row_andinto_csr_ns"] = perOp(func() {
				for v := 0; v < rows; v++ {
					gr.Row(v).AndInto(dst, cn)
				}
			}) / float64(rows)
		}
	}
	return nil
}

// cliquerLayer measures the process-level floor: a 16-vertex graph through
// the same binary (exec, runtime start, flag parsing), and the cost of
// printing (a full listing against -count).
func (w *cliSparse20k) cliquerLayer(e *env, base *result, l map[string]float64) error {
	small, err := smallGraphFile(e)
	if err != nil {
		return err
	}
	var startup, counted []float64
	for i := 0; i < 3; i++ {
		c, err := runCliquer(e.ctx, e.cliquer, small)
		if err != nil {
			return err
		}
		startup = append(startup, c.wall)
		if c, err = runCliquer(e.ctx, e.cliquer, "-count", w.file); err != nil {
			return err
		}
		counted = append(counted, c.wall)
	}
	l["cliquer.startup_s"] = median(startup)
	if full, ok := base.value("wall_s"); ok {
		l["cliquer.print_s"] = full - median(counted)
	}
	return nil
}

// smallGraphFile writes a 16-vertex graph: what is left of a run on it is
// the fixed cost of the process.
func smallGraphFile(e *env) (string, error) {
	dir, err := e.dir("small")
	if err != nil {
		return "", err
	}
	g := graph.RandomGNM(rand.New(rand.NewSource(16)), 16, 48)
	repro.PlantClique(g, []int{1, 5, 9, 13})
	path := filepath.Join(dir, "k16.el")
	return path, writeEdgeList(path, g)
}
