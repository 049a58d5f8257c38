package expt

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/maxclique"
)

// testCfg is a small-scale configuration that keeps the experiment tests
// fast; the CLI runs the same code paths at (near-)paper scale.
var testCfg = Config{Scale: 0.55, Seed: 7, Reps: 2, Budget: 1 << 20}

func TestSpecScaling(t *testing.T) {
	c := SpecC.Scale(0.5)
	if c.N != 1447 || c.Omega != 14 {
		t.Errorf("scaled C: n=%d ω=%d", c.N, c.Omega)
	}
	if same := SpecC.Scale(1); same != SpecC {
		t.Errorf("Scale(1) changed the spec: %+v", same)
	}
	defer func() {
		if recover() == nil {
			t.Error("Scale(0) accepted")
		}
	}()
	SpecC.Scale(0)
}

func TestBuildMatchesSpec(t *testing.T) {
	for _, spec := range []GraphSpec{
		SpecA.Scale(0.4), SpecC.Scale(0.4), SpecC.Scale(0.7),
	} {
		g := Build(spec, 3)
		if g.N() != spec.N {
			t.Errorf("%s: n=%d want %d", spec.Name, g.N(), spec.N)
		}
		if g.M() != spec.M {
			t.Errorf("%s: m=%d want %d", spec.Name, g.M(), spec.M)
		}
		if got := maxclique.Size(g); got != spec.Omega {
			t.Errorf("%s: ω=%d want %d", spec.Name, got, spec.Omega)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Headers: []string{"a", "bb"},
		Notes:   []string{"n1"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("3", "4.5")
	out := tab.String()
	for _, want := range []string{"T\n=", "a  bb", "1  2", "3  4.5", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMaxCliqueBounds(t *testing.T) {
	cfg := testCfg
	cfg.Scale = 0.25 // keep graph B's branch-and-bound quick
	tab, err := MaxCliqueBounds(cfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, tab)
	}
	if len(tab.Rows) != 3 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestTable1(t *testing.T) {
	// Wall-clock comparisons at test scale are vulnerable to scheduler
	// noise on loaded hosts; retry a few times and require the expected
	// ordering (Clique Enumerator beats Kose RAM) to show at least once.
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		res, err := Table1(testCfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cliques == 0 {
			t.Fatal("no cliques found")
		}
		if len(res.Table.Rows) != 1 {
			t.Fatalf("table rows = %d", len(res.Table.Rows))
		}
		if res.Speedup > best {
			best = res.Speedup
		}
		if best > 1 {
			return
		}
	}
	t.Errorf("Kose RAM consistently faster than Clique Enumerator? best speedup=%.2f", best)
}

func TestFig5ShapeAndVariance(t *testing.T) {
	tab, err := Fig5(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 Init_K values x 9 processor counts.
	if len(tab.Rows) != 27 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Within each Init_K, T(2) < T(1) (scaling at low P).
	for r := 0; r+1 < len(tab.Rows); r += 9 {
		var t1, t2 float64
		if _, err := sscan(tab.Rows[r][2], &t1); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(tab.Rows[r+1][2], &t2); err != nil {
			t.Fatal(err)
		}
		if t2 >= t1 {
			t.Errorf("Init_K=%s: T(2)=%.3f >= T(1)=%.3f", tab.Rows[r][0], t2, t1)
		}
	}
}

func TestFig6RelativeSpeedups(t *testing.T) {
	fam, err := CollectFamily(testCfg, initKladder(testCfg.normalized().specC()))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fig6(testCfg, fam)
	if err != nil {
		t.Fatal(err)
	}
	// Relative speedup at P=2 must be near 2 for every Init_K (work
	// dominates at low processor counts).
	for _, row := range tab.Rows {
		if row[1] != "2" {
			continue
		}
		var rel float64
		if _, err := sscan(row[4], &rel); err != nil {
			t.Fatal(err)
		}
		if rel < 1.3 || rel > 2.05 {
			t.Errorf("Init_K=%s: relative speedup at P=2 = %.2f", row[0], rel)
		}
	}
}

func TestFig7MonotoneTrend(t *testing.T) {
	fam, err := CollectFamily(testCfg, append([]int{3}, initKladder(testCfg.normalized().specC())...))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fig7(testCfg, fam)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Sequential times must decrease down the Init_K ladder toward
	// Init_K=3 increasing... i.e. rows are ordered largest Init_K first,
	// so T(1) increases down the table.
	var prev float64
	for i, row := range tab.Rows {
		var t1 float64
		if _, err := sscan(row[1], &t1); err != nil {
			t.Fatal(err)
		}
		if i > 0 && t1 < prev {
			t.Errorf("row %d: T(1)=%.4f decreasing (prev %.4f)", i, t1, prev)
		}
		prev = t1
	}
}

func TestFig8LoadBalance(t *testing.T) {
	tab, err := Fig8(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Simulated rows: stddev within 25% of mean at this tiny scale (the
	// paper's 10% holds at paper scale where sub-lists are plentiful).
	for _, row := range tab.Rows {
		if row[1] != "simulated" {
			continue
		}
		var pct float64
		if _, err := sscanPct(row[4], &pct); err != nil {
			t.Fatal(err)
		}
		if pct > 25 {
			t.Errorf("P=%s: busy stddev %.1f%% of mean", row[0], pct)
		}
	}
}

func TestFig9MemoryHump(t *testing.T) {
	tab, err := Fig9(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The profile must rise to an interior peak and then decline: peak
	// strictly after the first level and before the last.
	var bytes []float64
	for _, row := range tab.Rows {
		var b float64
		if _, err := sscan(row[3], &b); err != nil {
			t.Fatal(err)
		}
		bytes = append(bytes, b)
	}
	peakAt := 0
	for i, b := range bytes {
		if b > bytes[peakAt] {
			peakAt = i
		}
	}
	if peakAt == 0 || peakAt == len(bytes)-1 {
		t.Errorf("memory peak at boundary level %d of %d", peakAt, len(bytes))
	}
}

func TestBlowupAborts(t *testing.T) {
	cfg := testCfg
	cfg.Budget = 64 << 10 // 64 KiB: certain to trip
	res, err := Blowup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedAtK < 3 {
		t.Errorf("aborted at k=%d", res.AbortedAtK)
	}
	if res.ResidentBytes == 0 {
		t.Error("no resident bytes recorded")
	}
}

// sscan parses a leading float from a cell.
func sscan(cell string, out *float64) (int, error) {
	return fmtSscanf(cell, "%f", out)
}

func sscanPct(cell string, out *float64) (int, error) {
	return fmtSscanf(strings.TrimSuffix(cell, "%"), "%f", out)
}

func fmtSscanf(s, format string, out *float64) (int, error) {
	return fmt.Sscanf(s, format, out)
}

// TestFig9Golden: Figure 9 prints the paper's space formula,
// M[k]*c + N[k]*((k-1)*c + ceil(n/8) + pointer), from the counts the level
// blocks carry — not what the block store charges the governor — so the
// table is, byte for byte, the one the pointer-per-sub-list store
// printed (the golden file is that commit's output at scale 0.5, seed 1).
func TestFig9Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig9_scale0.5_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fig9(Config{Scale: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.String(); got != string(want) {
		t.Errorf("Figure 9 at scale 0.5, seed 1 differs from the golden table:\n%s\nwant:\n%s", got, want)
	}
}

func TestScalingFamilyDeduplicatesInitK(t *testing.T) {
	// At scale 0.3 the Init_K ladder collapses onto 3; the family must
	// not collect duplicate traces.
	fam, err := ScalingFamily(Config{Scale: 0.3, Seed: 1, Reps: 1, Budget: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, e := range fam.Entries {
		if seen[e.InitK] {
			t.Fatalf("duplicate Init_K %d in family", e.InitK)
		}
		seen[e.InitK] = true
	}
}

var updateScaling = flag.Bool("update-scaling", false, "rewrite the Figure 5-7 golden tables")

// TestScalingFiguresGolden: Figures 5, 6 and 7 replay counted units on a
// machine whose rate comes from the paper's 1,948 s, not from the host's
// clock, so at one configuration their tables are the same bytes in any
// process on any host.  Figure 8 stays out: its goroutine row is measured
// on the host.  Regenerate with -update-scaling only when the counted
// work or the machine model moves on purpose.
func TestScalingFiguresGolden(t *testing.T) {
	const golden = "testdata/scaling_scale0.55_seed7.golden"
	fam, err := ScalingFamily(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, fig := range []func() (*Table, error){
		func() (*Table, error) { return Fig5(testCfg) },
		func() (*Table, error) { return Fig6(testCfg, fam) },
		func() (*Table, error) { return Fig7(testCfg, fam) },
	} {
		tab, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(tab.String())
	}
	if *updateScaling {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("Figures 5-7 at scale 0.55, seed 7 differ from the golden tables:\n%s\nwant:\n%s", got.String(), want)
	}
}
