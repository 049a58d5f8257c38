package repro_test

import (
	"context"
	"os"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/dist"
)

// TestMain lets this test binary serve as an exec/pipe worker for the
// distributed facade tests: the coordinator's default transport
// re-executes the running binary, and the environment marker routes the
// child into the worker loop before any test runs.
func TestMain(m *testing.M) {
	if dist.WorkerEnabled() {
		dist.WorkerMain()
	}
	os.Exit(m.Run())
}

// TestDistributedFacadeParity: WithDistributed plugs into the one
// Enumerator API and its stream matches the sequential backend exactly,
// lower-bound filtering included, with the run visible in Stats.
func TestDistributedFacadeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := testGraph(3, 60, 0.15)
	for _, lo := range []int{3, 5} {
		want := stream(t, repro.NewEnumerator(repro.WithBounds(lo, 0)), g)
		if len(want) == 0 {
			t.Fatalf("lo=%d: no cliques from the reference backend", lo)
		}
		var st repro.Stats
		e := repro.NewEnumerator(
			repro.WithBounds(lo, 0),
			repro.WithDistributed(2, t.TempDir(), repro.DistShardBytes(512)),
			repro.WithStats(&st),
		)
		got := stream(t, e, g)
		if len(got) != len(want) {
			t.Fatalf("lo=%d: distributed delivered %d cliques, want %d", lo, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lo=%d: stream diverges at %d: got {%s}, want {%s}", lo, i, got[i], want[i])
			}
		}
		if st.Backend != "distributed" {
			t.Errorf("Stats.Backend = %q, want distributed", st.Backend)
		}
		if st.MaximalCliques != int64(len(want)) {
			t.Errorf("Stats.MaximalCliques = %d, want %d", st.MaximalCliques, len(want))
		}
		if st.DistWorkers != 2 {
			t.Errorf("Stats.DistWorkers = %d, want 2", st.DistWorkers)
		}
		if st.DistWorkerDeaths != 0 || st.DistReleases != 0 {
			t.Errorf("fault-free run reported deaths=%d releases=%d",
				st.DistWorkerDeaths, st.DistReleases)
		}
		if st.SpillBytesWritten == 0 || st.SpillBytesRead == 0 {
			t.Errorf("spill I/O not accounted: written=%d read=%d",
				st.SpillBytesWritten, st.SpillBytesRead)
		}
		// One stats-fill behind both disk backends: the peak level is the
		// out-of-core run's payload plus the headers of the smaller shards.
		var ost repro.Stats
		stream(t, repro.NewEnumerator(repro.WithBounds(lo, 0),
			repro.WithOutOfCore(t.TempDir(), 0), repro.WithStats(&ost)), g)
		if st.PeakLevelFileBytes < ost.PeakLevelFileBytes || st.PeakLevelFileBytes > st.SpillBytesWritten {
			t.Errorf("Stats.PeakLevelFileBytes = %d, want within [%d (out-of-core peak), %d (bytes written)]",
				st.PeakLevelFileBytes, ost.PeakLevelFileBytes, st.SpillBytesWritten)
		}
		// The per-level ledger plus the seed phase (the delivered
		// lo-cliques) must sum to the delivered count, like every other
		// backend.
		var sum int64
		for _, key := range want {
			if strings.Count(key, ",") < lo {
				sum++
			}
		}
		for _, ls := range st.Levels {
			sum += ls.Maximal
		}
		if sum != st.MaximalCliques || st.Levels[0].FromK != lo {
			t.Errorf("seed phase + sum(Levels[].Maximal) = %d, want %d; first level from %d, want %d",
				sum, st.MaximalCliques, st.Levels[0].FromK, lo)
		}
	}
}

// TestDiskBackendsReportSmall: WithReportSmall reaches the disk
// backends through the one seed — at lower bounds 1 and 2 the
// out-of-core and distributed runs stream the sequential run's cliques,
// the seed's 1- and 2-cliques first, and count them in Stats alike.
func TestDiskBackendsReportSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := testGraph(5, 70, 0.12)
	for _, lo := range []int{1, 2} {
		var ref repro.Stats
		want := stream(t, repro.NewEnumerator(repro.WithBounds(lo, 0), repro.WithReportSmall(), repro.WithStats(&ref)), g)
		if strings.Count(want[0], ",") > 1 {
			t.Fatalf("lo=%d: the reference stream opens with {%s}, not a small clique", lo, want[0])
		}
		for name, opt := range map[string]repro.Option{
			"out-of-core-2w": repro.WithOutOfCore(t.TempDir(), 0, repro.OOCWorkers(2)),
			"distributed-2w": repro.WithDistributed(2, t.TempDir(), repro.DistShardBytes(512)),
		} {
			var st repro.Stats
			got := stream(t, repro.NewEnumerator(repro.WithBounds(lo, 0), repro.WithReportSmall(), opt, repro.WithStats(&st)), g)
			if !slices.Equal(got, want) {
				t.Errorf("lo=%d %s: %d cliques, sequential %d, or in another order", lo, name, len(got), len(want))
			}
			if st.MaximalCliques != ref.MaximalCliques || st.MaxCliqueSize != ref.MaxCliqueSize {
				t.Errorf("lo=%d %s: Stats count %d cliques up to size %d, sequential %d up to %d", lo, name,
					st.MaximalCliques, st.MaxCliqueSize, ref.MaximalCliques, ref.MaxCliqueSize)
			}
		}
	}
}

// TestDistributedFacadeConfigErrors: the validation matrix reaches the
// facade — incompatible option combinations are run-time errors, not
// silent misconfiguration.
func TestDistributedFacadeConfigErrors(t *testing.T) {
	g := testGraph(3, 30, 0.1)
	for _, c := range []struct {
		name string
		opts []repro.Option
	}{
		{"with in-process workers", []repro.Option{
			repro.WithDistributed(2, t.TempDir()), repro.WithWorkers(4)}},
		{"with memory budget", []repro.Option{
			repro.WithDistributed(2, t.TempDir()), repro.WithMemoryBudget(1 << 20)}},
		{"with resume", []repro.Option{
			repro.WithDistributed(2, t.TempDir()), repro.WithResume(t.TempDir())}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := repro.NewEnumerator(c.opts...).Run(context.Background(), g, nil); err == nil {
				t.Fatal("incompatible distributed config accepted")
			}
		})
	}
}
