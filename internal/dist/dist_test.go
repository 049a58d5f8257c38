package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/membudget"
	"repro/internal/ooc"
	"repro/internal/testgraph"
)

// TestMain lets this test binary serve as an exec/pipe worker: the
// coordinator's default exec transport re-executes the running binary,
// and the environment marker routes the child into WorkerMain before
// any test runs.
func TestMain(m *testing.M) {
	if WorkerEnabled() {
		WorkerMain()
	}
	os.Exit(m.Run())
}

// testGraph is the shared fixture: planted cliques with overlap on a
// random background, dense enough to make several levels.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	return graph.PlantedGraph(rng, 48, []graph.PlantedCliqueSpec{
		{Size: 9},
		{Size: 7, Overlap: 3},
		{Size: 6, Overlap: 2},
	}, 140)
}

// orderedReporter records the exact emission sequence — parity checks
// compare order, not just sets.
type orderedReporter struct{ seq []clique.Clique }

func (r *orderedReporter) Emit(c clique.Clique) { r.seq = append(r.seq, c.Clone()) }

func sequentialStream(t *testing.T, g *graph.Graph) []clique.Clique {
	t.Helper()
	var ref orderedReporter
	if _, err := ooc.Enumerate(g, enumcfg.Config{Dir: t.TempDir()}, core.Hooks{Reporter: &ref}); err != nil {
		t.Fatalf("sequential reference: %v", err)
	}
	return ref.seq
}

func assertSameStream(t *testing.T, label string, got, want []clique.Clique) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cliques, sequential emitted %d", label, len(got), len(want))
	}
	for i := range want {
		if clique.Compare(got[i], want[i]) != 0 {
			t.Fatalf("%s: clique %d = %v, sequential emitted %v (stream order diverged)",
				label, i, got[i], want[i])
		}
	}
}

// TestDistStreamParityMatrix is the acceptance matrix: coordinator + N
// exec/pipe workers must emit a stream identical (content AND order) to
// the sequential backend, for N in {1,2,4}.
func TestDistStreamParityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := testGraph(t)
	want := sequentialStream(t, g)
	if len(want) == 0 {
		t.Fatal("reference stream is empty; fixture too sparse")
	}
	for _, workers := range []int{1, 2, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		t.Run(name, func(t *testing.T) {
			var rep orderedReporter
			st, err := Enumerate(g, enumcfg.Config{
				Dir:         t.TempDir(),
				DistWorkers: workers,
				ShardBytes:  256, // many shards per level: real leasing traffic
			}, core.Hooks{Reporter: &rep}, nil)
			if err != nil {
				t.Fatalf("dist enumerate: %v", err)
			}
			assertSameStream(t, name, rep.seq, want)
			if st.Maximal != int64(len(want)) {
				t.Errorf("Stats.Maximal = %d, want %d", st.Maximal, len(want))
			}
			if st.Workers != workers {
				t.Errorf("Stats.Workers = %d, want %d", st.Workers, workers)
			}
		})
	}
}

// killSecondLease is the exec transport with one crash on cue: whichever
// slot is sent the run's second lease has its worker process killed just
// before the frame goes out — the lease is in flight on a dead worker,
// and the coordinator must re-lease it.  The cue counts the run's leases,
// not one slot's, so it fires however late any slot's process starts.
type killSecondLease struct {
	ExecTransport
	leases atomic.Int32 // leases sent to any slot
}

func (t *killSecondLease) Dial(ctx context.Context, i int) (Conn, error) {
	c, err := t.ExecTransport.Dial(ctx, i)
	if err != nil {
		return c, err
	}
	return &killConn{Conn: c, t: t, slot: i}, nil
}

// killConn is a slot's connection under killSecondLease.
type killConn struct {
	Conn
	t    *killSecondLease
	slot int
}

func (c *killConn) Send(m *Msg) error {
	if m.Type == MsgLease && c.t.leases.Add(1) == 2 {
		if err := c.t.Kill(c.slot); err != nil {
			return err
		}
	}
	return c.Conn.Send(m)
}

// TestDistKillWorkerRecovery is the fault-tolerance half of the
// acceptance criterion: one worker dies mid-level with a lease in
// flight, the shard is re-leased, and the final stream is still
// byte-identical — with the re-lease visible in the persisted report.
func TestDistKillWorkerRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := testGraph(t)
	want := sequentialStream(t, g)
	dir := t.TempDir()
	var rep orderedReporter
	st, err := Enumerate(g, enumcfg.Config{
		Dir:         dir,
		DistWorkers: 3,
		ShardBytes:  256,
	}, core.Hooks{Reporter: &rep}, &killSecondLease{})
	if err != nil {
		t.Fatalf("dist enumerate with crash: %v", err)
	}
	assertSameStream(t, "after worker kill", rep.seq, want)
	if st.WorkerDeaths == 0 {
		t.Error("Stats.WorkerDeaths = 0; fault injection never fired")
	}
	if st.Releases == 0 {
		t.Error("Stats.Releases = 0; the in-flight shard was never re-leased")
	}
	data, err := os.ReadFile(filepath.Join(dir, ReportName))
	if err != nil {
		t.Fatalf("run report: %v", err)
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if len(report.Releases) == 0 {
		t.Error("report shows no re-leased shard")
	}
	for _, r := range report.Releases {
		if r.Shard == "" || r.Reason == "" {
			t.Errorf("release record incomplete: %+v", r)
		}
	}
	if report.WorkerDeaths != st.WorkerDeaths {
		t.Errorf("report deaths %d != stats deaths %d", report.WorkerDeaths, st.WorkerDeaths)
	}
}

// TestDistLoopbackParityAndAccounting runs the coordinator over the
// in-process loopback transport — the configuration `make race`
// exercises with the race detector watching both sides — and checks
// the governor's zero-residual law: after the run every worker
// reservation and every transient buffer has been returned.
func TestDistLoopbackParityAndAccounting(t *testing.T) {
	g := testGraph(t)
	want := sequentialStream(t, g)
	gov := membudget.New(0)
	var rep orderedReporter
	var reserved []int64 // the workers' scratch reservations, seen at each level's end
	st, err := Enumerate(g, enumcfg.Config{
		Dir:         t.TempDir(),
		DistWorkers: 3,
		ShardBytes:  256,
	}, core.Hooks{
		Reporter: &rep,
		Gov:      gov,
		OnLevel:  func(core.LevelStats) { reserved = append(reserved, gov.Reserved()) },
	}, &LoopbackTransport{})
	if err != nil {
		t.Fatalf("loopback enumerate: %v", err)
	}
	// A joiner's prefix memo deepens by one bitmap per level; the
	// reservations held on the workers' behalf must follow it.
	if n := len(reserved); n < 2 || reserved[n-1] <= reserved[0] {
		t.Errorf("worker scratch reservations did not grow with the level: %v", reserved)
	}
	if r := gov.Reserved(); r != 0 {
		t.Errorf("%d bytes still reserved after the run", r)
	}
	assertSameStream(t, "loopback", rep.seq, want)
	if st.Maximal != int64(len(want)) {
		t.Errorf("Stats.Maximal = %d, want %d", st.Maximal, len(want))
	}
	if used := gov.Used(); used != 0 {
		t.Errorf("governor residual after run: %d bytes (reservation leak)", used)
	}
	if gov.Peak() == 0 {
		t.Error("governor peak is zero: worker scratch was never accounted")
	}
}

// TestDiskStatsAgreeAcrossRunners: where a shard is joined is a
// scheduling policy, so it must not show in anything the level driver
// reports — the in-process pool at 1 and 4 workers and the lease
// scheduler at 1 and 2 emit one stream, one []LevelStats (per-level Cost
// included: a shard join starts from an empty prefix memo) and one
// ooc.Stats (shard names aside), and hand the governor back as found.
// The shard target is fixed: the default one depends on the worker count.
func TestDiskStatsAgreeAcrossRunners(t *testing.T) {
	g := testGraph(t)
	const shardBytes, held = 256, 4096
	type observed struct {
		seq    []clique.Clique
		levels []core.LevelStats
		st     ooc.Stats
	}
	var ref *observed
	for _, c := range []struct {
		name    string
		workers int
		dist    bool
	}{{"pool-1", 1, false}, {"pool-4", 4, false}, {"dist-1", 1, true}, {"dist-2", 2, true}} {
		var rep orderedReporter
		var got observed
		gov := membudget.New(0)
		gov.Charge(held)
		cfg := enumcfg.Config{Dir: t.TempDir(), ShardBytes: shardBytes}
		hooks := core.Hooks{Reporter: &rep, Gov: gov,
			OnLevel: func(ls core.LevelStats) { got.levels = append(got.levels, ls) }}
		var err error
		if c.dist {
			cfg.DistWorkers = c.workers
			var st Stats
			st, err = Enumerate(g, cfg, hooks, &LoopbackTransport{})
			got.st = st.Stats
		} else {
			cfg.Workers = c.workers
			got.st, err = ooc.Enumerate(g, cfg, hooks)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got.seq = rep.seq
		if used := gov.Used(); used != held {
			t.Errorf("%s: governor holds %d bytes after the run, %d before", c.name, used, held)
		}
		gov.Release(held)
		if ref == nil {
			if got.st.PeakLevelFile == 0 || len(got.levels) < 3 {
				t.Fatalf("%s: fixture too small: %+v", c.name, got.st)
			}
			ref = &got
			continue
		}
		assertSameStream(t, c.name, got.seq, ref.seq)
		if !slices.EqualFunc(got.levels, ref.levels, sameDiskLevel) {
			t.Errorf("%s: level stats diverge:\n got %+v\nwant %+v", c.name, got.levels, ref.levels)
		}
		if got.st != ref.st {
			t.Errorf("%s: stats diverge:\n got %+v\nwant %+v", c.name, got.st, ref.st)
		}
	}
}

// sameDiskLevel compares the fields of the level record a disk level
// fills (core.LevelStats holds slices, so it has no ==).
func sameDiskLevel(a, b core.LevelStats) bool {
	return a.FromK == b.FromK && a.Cliques == b.Cliques && a.Bytes == b.Bytes &&
		a.NextBytes == b.NextBytes && a.Maximal == b.Maximal && sameWork(a, b) &&
		a.Spilled && b.Spilled
}

// sameWork compares the kernel's work two records of one step count,
// whichever engine ran it: a level's Cost is a function of its words.
func sameWork(a, b core.LevelStats) bool {
	return a.Dropped == b.Dropped && a.Cost == b.Cost
}

// TestLevelCostAgreesAcrossEngines: the join charges each record's
// prefix rebuild from its stored lcp, never from what its consumer
// mapped before, and a level is cut only where a run starts, so a level's
// Cost is one function of the level.  The sequential engine, the in-core
// pool at every width and strategy (run repeatedly: its schedule differs
// from run to run), out of core at one and two workers with default and
// 256-byte shards, a distributed run, and hybrid runs that trip at one,
// two and four workers, with a half, a quarter and an eighth of the
// unbudgeted run's peak beside the graph, all count the same Dropped and
// Cost, level for level.
func TestLevelCostAgreesAcrossEngines(t *testing.T) {
	g := expt.Build(expt.GraphSpec{N: 200, M: 800, Omega: 14}, 1)
	costs := func(name string, run func(h core.Hooks) error) []core.LevelStats {
		t.Helper()
		var levels []core.LevelStats
		if err := run(core.Hooks{OnLevel: func(ls core.LevelStats) { levels = append(levels, ls) }}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return levels
	}
	inCore := func(cfg enumcfg.Config) func(core.Hooks) error {
		return func(h core.Hooks) error { _, err := hybrid.Enumerate(g, cfg, h); return err }
	}
	want := costs("sequential", inCore(enumcfg.Config{Lo: 3}))
	if len(want) < 8 {
		t.Fatalf("fixture too small: %d levels", len(want))
	}
	sameLevel := func(a, b core.LevelStats) bool { return a.FromK == b.FromK && sameWork(a, b) }
	check := func(name string, run func(core.Hooks) error) {
		t.Helper()
		got := costs(name, run)
		if len(got) != len(want) {
			t.Errorf("%s: %d levels, sequential %d", name, len(got), len(want))
			return
		}
		for i := range got {
			if !sameLevel(got[i], want[i]) {
				t.Errorf("%s: level %d counts %+v and drops %d, sequential %+v and %d",
					name, want[i].FromK, got[i].Cost, got[i].Dropped, want[i].Cost, want[i].Dropped)
			}
		}
	}
	strategies := map[string]enumcfg.Strategy{"contiguous": enumcfg.Contiguous, "affinity": enumcfg.Affinity}
	for _, workers := range []int{2, 4} {
		for sname, strategy := range strategies {
			for run := range 5 {
				check(fmt.Sprintf("pool workers=%d %s run %d", workers, sname, run),
					inCore(enumcfg.Config{Lo: 3, Workers: workers, Strategy: strategy}))
			}
		}
	}
	for _, workers := range []int{1, 2} {
		for _, shard := range []int64{0, 256} {
			check(fmt.Sprintf("ooc workers=%d shard=%d", workers, shard), func(h core.Hooks) error {
				_, err := ooc.Enumerate(g, enumcfg.Config{Lo: 3, Workers: workers, ShardBytes: shard, Dir: t.TempDir()}, h)
				return err
			})
		}
	}
	check("dist workers=2", func(h core.Hooks) error {
		_, err := Enumerate(g, enumcfg.Config{Lo: 3, DistWorkers: 2, Dir: t.TempDir()}, h, &LoopbackTransport{})
		return err
	})

	// Hybrid runs on a graph that trips mid-level: graph C at scale 0.6,
	// its bytes charged first, as the facade does.  The dense graph alone
	// holds more than half the unbudgeted peak, so a budget is the graph
	// plus a fraction of what the run held beyond it; under a bare
	// fraction of the peak every run would trip at its first record.
	g = expt.Build(expt.SpecC.Scale(0.6), 1)
	entry := int64(g.Bytes())
	free := membudget.New(0)
	free.Charge(entry)
	defer free.Release(entry)
	want = costs("sequential C x0.6", func(h core.Hooks) error {
		h.Gov = free
		return inCore(enumcfg.Config{Lo: 3})(h)
	})
	for _, workers := range []int{1, 2, 4} {
		for _, div := range []int64{2, 4, 8} {
			budget := entry + (free.Peak()-entry)/div
			check(fmt.Sprintf("hybrid workers=%d budget=%d", workers, budget), func(h core.Hooks) error {
				h.Gov = membudget.New(budget)
				h.Gov.Charge(entry)
				defer h.Gov.Release(entry)
				res, err := hybrid.Enumerate(g, enumcfg.Config{Lo: 3, Workers: workers, Dir: t.TempDir()}, h)
				if err == nil && res.SpilledAtLevel == 0 {
					err = fmt.Errorf("no trip under %d bytes", budget)
				}
				return err
			})
		}
	}
}

// TestDiskLevelsCountTheKernelsWork: a disk run seeds like an in-core
// one and counts a step joined from shard files like one joined in
// memory — at every lower bound, an out-of-core run and a distributed one
// emit the sequential in-core stream, and per level they consume and
// produce the same sub-lists and cliques, deliver the same maximal ones,
// drop the same and pay the same pairs, probes and generated cliques.  With ReportSmall the seed's 1-
// and 2-cliques lead the stream, and the run record — the level records
// folded plus the seed tally, as the facade keeps it — agrees too.
func TestDiskLevelsCountTheKernelsWork(t *testing.T) {
	g := testGraph(t)
	type observed struct {
		seq []clique.Clique
		res core.Result
	}
	hooks := func(o *observed) core.Hooks {
		return core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) { o.seq = append(o.seq, c.Clone()) }),
			OnLevel: o.res.Fold(nil)}
	}
	sameLevel := func(a, b core.LevelStats) bool {
		return a.FromK == b.FromK && a.Sublists == b.Sublists && a.Cliques == b.Cliques &&
			a.NextSub == b.NextSub && a.NextCl == b.NextCl && a.Maximal == b.Maximal && sameWork(a, b)
	}
	for _, c := range []struct {
		lo    int
		small bool
	}{{2, false}, {3, false}, {5, false}, {1, true}, {2, true}} {
		name := fmt.Sprintf("lo=%d/small=%v", c.lo, c.small)
		var want, pool, leased observed
		res, err := hybrid.Enumerate(g, enumcfg.Config{Lo: c.lo, ReportSmall: c.small}, hooks(&want))
		if err != nil {
			t.Fatal(err)
		}
		want.res = res.Result
		st, err := ooc.Enumerate(g, enumcfg.Config{Lo: c.lo, ReportSmall: c.small, Dir: t.TempDir(), Workers: 2, ShardBytes: 256},
			hooks(&pool))
		if err != nil {
			t.Fatal(err)
		}
		pool.res.Seeded(st.Seeded)
		dst, err := Enumerate(g, enumcfg.Config{Lo: c.lo, ReportSmall: c.small, Dir: t.TempDir(), DistWorkers: 2, ShardBytes: 256},
			hooks(&leased), &LoopbackTransport{})
		if err != nil {
			t.Fatal(err)
		}
		leased.res.Seeded(dst.Seeded)
		var dropped int64
		for _, ls := range want.res.Levels {
			dropped += ls.Dropped
		}
		if len(want.res.Levels) < 3 || dropped == 0 {
			t.Fatalf("%s: fixture too small: %d levels, %d dropped", name, len(want.res.Levels), dropped)
		}
		if small := slices.IndexFunc(want.seq, func(c clique.Clique) bool { return len(c) < 3 }); c.small != (small >= 0) {
			t.Fatalf("%s: the reference stream holds a clique below 3 at %d", name, small)
		}
		for runner, got := range map[string]observed{"ooc": pool, "dist": leased} {
			assertSameStream(t, name+"/"+runner, got.seq, want.seq)
			if !slices.EqualFunc(got.res.Levels, want.res.Levels, sameLevel) {
				t.Errorf("%s: %s level records diverge from the in-core run's:\n got %+v\nwant %+v",
					name, runner, got.res.Levels, want.res.Levels)
			}
			if got.res.MaximalCliques != want.res.MaximalCliques || got.res.MaxCliqueSize != want.res.MaxCliqueSize {
				t.Errorf("%s: %s record counts %d cliques up to size %d, in core %d up to %d", name, runner,
					got.res.MaximalCliques, got.res.MaxCliqueSize, want.res.MaximalCliques, want.res.MaxCliqueSize)
			}
		}
	}
}

// TestDistRunDirCleanup: a successful run leaves only the audit report
// in the run directory — shards, manifest, and the shipped graph are
// all retired.
func TestDistRunDirCleanup(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	if _, err := Enumerate(g, enumcfg.Config{
		Dir:         dir,
		DistWorkers: 2,
	}, core.Hooks{}, &LoopbackTransport{}); err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != ReportName {
			t.Errorf("leftover file after successful run: %s", e.Name())
		}
	}
	if ooc.HasManifest(dir) {
		t.Error("checkpoint manifest survived a successful run")
	}
}

// TestDistNoGoroutineLeakAfterDeaths pins the handleDeath reaper join:
// every asynchronous connection close spawned for a dead worker is
// awaited before Enumerate returns, so crash-recovery runs leave no
// straggler goroutines behind — the invariant goroleak enforces
// statically at the launch site.
func TestDistNoGoroutineLeakAfterDeaths(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := testGraph(t)
	// Pump goroutines unwind asynchronously after run() closes c.done;
	// only a bounded settling window is acceptable, not a leak per run.
	check := testgraph.NoLeaks(t, nil)
	for i := 0; i < 2; i++ {
		if _, err := Enumerate(g, enumcfg.Config{
			Dir:         t.TempDir(),
			DistWorkers: 3,
			ShardBytes:  256,
		}, core.Hooks{}, &killSecondLease{}); err != nil {
			t.Fatalf("run %d with crash: %v", i, err)
		}
	}
	check()
}
