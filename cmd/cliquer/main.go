// Command cliquer runs the paper's full analysis pipeline on a graph:
// maximum clique upper bound, then maximal clique enumeration over a size
// range, on any of the enumeration backends behind the repro.Enumerator
// facade — sequential, parallel, out-of-core, hybrid, or distributed.
//
// Usage:
//
//	cliquer [flags] <graph-file>
//
// The graph file is an edge list ("n m" header then "u v" lines) or
// DIMACS (-dimacs).  Maximal cliques are printed one per line in
// non-decreasing size order; use -count to suppress the listing.
//
// Parallel runs (-workers > 1) use the streaming worker pool;
// -strategy selects the dispatch policy (affinity or contiguous), and
// -stats streams per-level statistics to stderr.  -ooc DIR spills levels
// to disk instead of memory; -workers then joins the level shards
// concurrently, and -ooc-checkpoint keeps a resumable manifest so a
// killed run can be continued with -resume DIR (same graph file).
//
// -mem-budget BYTES arms the memory governor on any backend: a purely
// in-core run (sequential or parallel) aborts with partial
// statistics when the budget trips, while -mem-budget combined with
// -ooc DIR selects the adaptive hybrid backend — the run starts in core
// and transparently spills to DIR and continues out-of-core the moment
// the governor trips, producing the identical clique stream either way.
// The summary always reports the governor's peak resident bytes, and a
// spilled run reports the level at which it left memory.
//
// -dist N runs the distributed coordinator instead: N worker processes
// (spawned from this binary with -worker, or from -dist-worker-cmd) join
// the level shards under the -ooc directory, which -dist requires as the
// shared run directory.  -dist-lease-timeout bounds how long a worker
// holding a shard may fall silent (its heartbeats extend the lease)
// before the shard is re-leased, and -dist-shard-bytes overrides the
// lease granularity.  A worker that dies
// is respawned and its in-flight shard re-leased — the emitted stream is
// byte-identical to a sequential run regardless.
//
// Runs cancel cleanly: -timeout bounds the wall clock, and Ctrl-C
// (SIGINT) aborts mid-level — either way the partial statistics gathered
// so far are printed before exit, and a checkpointed out-of-core run
// keeps its last completed level on disk for -resume.
//
// Example:
//
//	graphgen -spec C -scale 0.5 -out c.el
//	cliquer -lo 5 -workers 4 -strategy affinity -stats -timeout 30s c.el
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro"
	"repro/internal/dist"
)

func main() {
	// A process spawned by a distributed coordinator is a worker, not a
	// CLI: the environment marker routes it into the wire-protocol loop
	// before any flag parsing (the -worker flag below is the human-visible
	// marker in the argv; activation is by environment).
	if dist.WorkerEnabled() {
		dist.WorkerMain()
	}
	lo := flag.Int("lo", 3, "smallest clique size to report (Init_K)")
	hi := flag.Int("hi", 0, "largest clique size (0: compute maximum clique and use it)")
	workers := flag.Int("workers", 1, "worker threads (1 = sequential); with -ooc, the shard-join workers")
	strategy := flag.String("strategy", "affinity", "parallel dispatch strategy: affinity or contiguous")
	stats := flag.Bool("stats", false, "print live per-level statistics")
	countOnly := flag.Bool("count", false, "print counts only, not the cliques")
	dimacs := flag.Bool("dimacs", false, "input is DIMACS clique format")
	repr := flag.String("repr", "auto", "graph representation: auto (the smaller of dense and csr), dense, csr or wah")
	oocDir := flag.String("ooc", "", "run the out-of-core enumerator, spilling levels to this directory")
	oocCheckpoint := flag.Bool("ooc-checkpoint", false, "out-of-core: keep a resumable manifest in the -ooc directory (resume with -resume)")
	resume := flag.String("resume", "", "continue the checkpointed out-of-core run in this directory (needs the same graph file)")
	distWorkers := flag.Int("dist", 0, "distributed: lease level shards to this many worker processes (requires -ooc DIR as the shared run directory)")
	distWorkerCmd := flag.String("dist-worker-cmd", "", "distributed: worker command line (default: this binary with -worker)")
	distLease := flag.Duration("dist-lease-timeout", 0, "distributed: revoke and re-lease a shard whose worker sends no heartbeat within this duration (0 = 30s default)")
	distShardBytes := flag.Int64("dist-shard-bytes", 0, "distributed: target shard size in bytes, the lease granularity (0 = auto)")
	flag.Bool("worker", false, "serve as a distributed worker over stdin/stdout (activated by the coordinator's environment; this flag is the argv marker)")
	budget := flag.Int64("mem-budget", 0, "memory governor budget in bytes, enforced on every backend (0 = unlimited; with -ooc the run spills over instead of aborting)")
	spill := flag.Int64("spill-budget", 0, "out-of-core: abort if a level's files would exceed this many bytes (0 = unlimited)")
	noBound := flag.Bool("no-bound", false, "skip the maximum clique upper-bound computation")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cliquer [flags] <graph-file>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// Ctrl-C cancels the run through the enumerator's context; a second
	// Ctrl-C kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	err := run(ctx, flag.Arg(0), options{
		lo: *lo, hi: *hi, workers: *workers, strategy: *strategy,
		stats: *stats, countOnly: *countOnly, dimacs: *dimacs,
		repr: *repr, oocDir: *oocDir, oocCheckpoint: *oocCheckpoint,
		resume: *resume, budget: *budget, spill: *spill,
		noBound: *noBound,
		dist:    *distWorkers, distWorkerCmd: *distWorkerCmd,
		distLease: *distLease, distShardBytes: *distShardBytes,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cliquer: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	lo, hi, workers          int
	strategy                 string
	stats, countOnly, dimacs bool
	noBound                  bool
	repr                     string
	oocDir                   string
	oocCheckpoint            bool
	resume                   string
	budget, spill            int64
	dist                     int
	distWorkerCmd            string
	distLease                time.Duration
	distShardBytes           int64
}

func parseStrategy(s string) (repro.Strategy, error) {
	switch s {
	case "affinity":
		return repro.Affinity, nil
	case "contiguous":
		return repro.Contiguous, nil
	}
	return 0, fmt.Errorf("unknown -strategy %q (want affinity or contiguous)", s)
}

func run(ctx context.Context, path string, o options) error {
	strategy, err := parseStrategy(o.strategy)
	if err != nil {
		return err
	}
	rep, err := repro.ParseRepresentation(o.repr)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// Format auto-detection: -dimacs forces DIMACS, otherwise the reader
	// sniffs the first meaningful line (c/p/e lines vs #-comments and
	// bare vertex pairs).
	format := repro.FormatAuto
	if o.dimacs {
		format = repro.FormatDIMACS
	}
	g, err := repro.ReadGraph(f, format, rep)
	// The graph is fully materialized here; close eagerly and report a
	// close failure (truncated read, I/O error surfacing late) rather
	// than dropping it from a defer.
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges, density %.4f%%, representation %s (%d adjacency bytes; dense would be %d)\n",
		g.N(), g.M(), 100*repro.Density(g), g.Representation(),
		g.Bytes(), repro.DenseAdjacencyBytes(g.N()))

	if o.hi == 0 && !o.noBound {
		start := time.Now()
		omega := repro.MaxCliqueSize(g)
		fmt.Printf("maximum clique: %d (%.3fs)\n", omega, time.Since(start).Seconds())
		o.hi = omega
	}

	var report repro.Reporter
	if !o.countOnly {
		report = repro.ReporterFunc(func(c repro.Clique) {
			names := make([]string, len(c))
			for i, v := range c {
				names[i] = g.Name(v)
			}
			fmt.Println(strings.Join(names, " "))
		})
	}

	opts := []repro.Option{repro.WithBounds(o.lo, o.hi)}
	if o.workers > 1 {
		opts = append(opts, repro.WithWorkers(o.workers), repro.WithStrategy(strategy))
	}
	if o.dist != 0 { // a count below one is the facade's configuration error
		if o.oocDir == "" {
			return fmt.Errorf("-dist requires -ooc DIR as the shared run directory")
		}
		if o.resume != "" || o.oocCheckpoint {
			return fmt.Errorf("-dist manages its own per-level checkpoint; -resume and -ooc-checkpoint do not apply")
		}
		var knobs []repro.OutOfCoreOption
		if o.distWorkerCmd != "" {
			knobs = append(knobs, repro.DistWorkerCommand(strings.Fields(o.distWorkerCmd)...))
		}
		if o.distLease > 0 {
			knobs = append(knobs, repro.DistLeaseTimeout(o.distLease))
		}
		if o.distShardBytes > 0 {
			knobs = append(knobs, repro.DistShardBytes(o.distShardBytes))
		}
		opts = append(opts, repro.WithDistributed(o.dist, o.oocDir, knobs...))
	} else if o.oocDir != "" || o.resume != "" {
		dir := o.oocDir
		if o.resume != "" {
			if o.oocDir != "" && o.oocDir != o.resume {
				return fmt.Errorf("-resume %s and -ooc %s name different directories", o.resume, o.oocDir)
			}
			dir = o.resume
		}
		var knobs []repro.OutOfCoreOption
		if o.oocCheckpoint {
			knobs = append(knobs, repro.OOCCheckpoint())
		}
		opts = append(opts, repro.WithOutOfCore(dir, o.spill, knobs...))
		if o.resume != "" {
			opts = append(opts, repro.WithResume(dir))
		}
	}
	if o.budget > 0 {
		// The governor enforces the budget on every backend; together
		// with -ooc it selects the hybrid backend, which spills over and
		// keeps running instead of aborting.
		opts = append(opts, repro.WithMemoryBudget(o.budget))
	}
	var st repro.Stats
	opts = append(opts, repro.WithStats(&st))
	if o.stats {
		opts = append(opts, repro.WithOnLevel(func(ls repro.LevelStats) {
			fmt.Fprintf(os.Stderr,
				"level %2d->%2d: %8d sub-lists %9d cliques %8d maximal %5d transfers %12d level bytes %12d work %12d rebuild %9.6f s %9.6f wait s\n",
				ls.FromK, ls.FromK+1, ls.Sublists, ls.Cliques, ls.Maximal,
				ls.Transfers, ls.ResidentBytes, ls.Work, ls.Rebuild, ls.Elapsed.Seconds(), ls.Wait.Seconds())
		}))
	}

	if _, err := repro.NewEnumerator(opts...).Run(ctx, g, report); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			printSummary(os.Stderr, "interrupted", &st, o)
			return fmt.Errorf("run canceled after %.3fs with partial results: %w", st.Elapsed.Seconds(), err)
		}
		// Mid-run aborts (memory/spill budget exceeded) still carry the
		// partial statistics — for the budget workflow the peak resident
		// bytes ARE the result.  st.Backend is empty only when the
		// configuration was rejected before anything ran.
		if st.Backend != "" {
			printSummary(os.Stderr, "aborted", &st, o)
		}
		return err
	}
	printSummary(os.Stdout, "done", &st, o)
	return nil
}

// printSummary reports the (possibly partial) run statistics — the same
// shape whether the run completed, timed out, or was Ctrl-C'd.
func printSummary(w io.Writer, state string, st *repro.Stats, o options) {
	bounds := fmt.Sprintf("[%d,%d]", o.lo, o.hi)
	if o.hi == 0 { // no upper bound: -no-bound
		bounds = fmt.Sprintf("[%d,∞)", o.lo)
	}
	fmt.Fprintf(w, "%s (%s): %d maximal cliques in %s, max size %d, %d levels, %.3fs\n",
		state, st.Backend, st.MaximalCliques, bounds, st.MaxCliqueSize,
		len(st.Levels), st.Elapsed.Seconds())
	switch {
	case st.Backend == "distributed":
		fmt.Fprintf(w, "  dist: %d worker processes, %d re-leased shards, %d worker deaths\n",
			st.DistWorkers, st.DistReleases, st.DistWorkerDeaths)
		fmt.Fprintf(w, "  spill: %d bytes written, %d read\n",
			st.SpillBytesWritten, st.SpillBytesRead)
	case st.Backend == "out-of-core" || strings.HasPrefix(st.Backend, "hybrid("):
		if st.SpilledAtLevel > 0 {
			fmt.Fprintf(w, "  spillover: governor tripped generating level %d; continued out of core\n",
				st.SpilledAtLevel)
		}
		if st.SpillBytesWritten > 0 || st.Backend == "out-of-core" {
			resumed := ""
			if st.Resumed {
				resumed = " (resumed)"
			}
			fmt.Fprintf(w, "  spill%s: %d bytes written, %d read, peak level %d\n",
				resumed, st.SpillBytesWritten, st.SpillBytesRead, st.PeakLevelFileBytes)
		}
	case st.Backend == "parallel":
		fmt.Fprintf(w, "  pool: %d workers, %d transfers\n", len(st.WorkerBusy), st.Transfers)
	}
	if st.PeakBytes > 0 {
		budget := ""
		if o.budget > 0 {
			budget = fmt.Sprintf(" (budget %d)", o.budget)
		}
		fmt.Fprintf(w, "  governor peak: %d bytes resident%s\n", st.PeakBytes, budget)
	}
}
