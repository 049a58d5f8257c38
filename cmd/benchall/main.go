// Command benchall is the unified benchmark trajectory: one binary that
// runs the representation, out-of-core and hybrid enumeration scenarios
// plus the kernel microbenchmarks underneath them, and appends the result to
// a single versioned history file.  `make bench-all` runs it and commits
// the entry to BENCH_all.json; `make bench-check` (benchall -check)
// compares the last two entries and fails on a >10% per-scenario
// regression, so speed wins stick instead of silently eroding.
//
// Each history entry records the commit, timestamp, Go version, a free
// label, and per-scenario ns/op plus a bytes figure whose meaning is
// scenario-specific (operand bytes for kernels, adjacency/disk/peak
// bytes for enumeration scenarios).  The check compares ns/op only,
// matching scenarios by name; scenarios present in one entry but not
// the other are ignored, so the suite can grow without tripping the
// gate.
//
// Escape hatch for intentional regressions (e.g. a correctness fix that
// costs speed): set BENCH_ALLOW_REGRESSION to a short justification and
// the check reports the regressions but exits zero, printing the reason
// into the log so the trade-off is on the record.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/membudget"
	"repro/internal/ooc"
)

type scenarioResult struct {
	Name string `json:"name"`
	NsOp int64  `json:"ns_op"`
	// Bytes is scenario-specific: operand bytes touched per op for
	// kernels, adjacency/disk/governor-peak bytes for enumeration.
	Bytes   int64 `json:"bytes,omitempty"`
	Cliques int64 `json:"cliques,omitempty"`
}

type entry struct {
	Commit    string           `json:"commit"`
	Timestamp string           `json:"timestamp"`
	Label     string           `json:"label,omitempty"`
	GoVersion string           `json:"go"`
	Scenarios []scenarioResult `json:"scenarios"`
}

type trajectory struct {
	Schema  string  `json:"schema"`
	History []entry `json:"history"`
}

const schema = "repro/bench-all/v1"

func main() {
	out := flag.String("out", "BENCH_all.json", "trajectory JSON path (history is appended)")
	label := flag.String("label", "", "free-form label recorded on the new entry")
	check := flag.Bool("check", false, "compare the last two entries instead of benchmarking")
	threshold := flag.Float64("threshold", 0.10, "per-scenario regression tolerance for -check")
	reps := flag.Int("reps", 3, "timed repetitions per enumeration scenario (best is kept)")
	scale := flag.Float64("scale", 1.0, "Table-1 (graph A) scale factor for the ooc/hybrid scenarios")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	traj, err := load(*out)
	if err != nil {
		fatal(err)
	}

	if *check {
		if err := runCheck(traj, *threshold); err != nil {
			fatal(err)
		}
		return
	}

	e := entry{
		Commit:    commitID(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Label:     *label,
		GoVersion: runtime.Version(),
	}
	e.Scenarios = append(e.Scenarios, kernelScenarios(*seed)...)
	enumScenarios, err := enumerationScenarios(*reps, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	e.Scenarios = append(e.Scenarios, enumScenarios...)
	traj.History = append(traj.History, e)

	if err := save(*out, traj); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (entry %d, commit %s)\n", *out, len(traj.History), e.Commit)
	for _, s := range e.Scenarios {
		fmt.Printf("  %-40s %12d ns/op\n", s.Name, s.NsOp)
	}
	if len(traj.History) >= 2 {
		printDelta(traj.History[len(traj.History)-2], e)
	}
}

func load(path string) (trajectory, error) {
	traj := trajectory{Schema: schema}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return traj, nil
	}
	if err != nil {
		return traj, err
	}
	if err := json.Unmarshal(data, &traj); err != nil {
		return traj, fmt.Errorf("benchall: parsing %s: %w", path, err)
	}
	if traj.Schema != schema {
		return traj, fmt.Errorf("benchall: %s has schema %q, want %q", path, traj.Schema, schema)
	}
	return traj, nil
}

func save(path string, traj trajectory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traj); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// commitID resolves the current commit for the entry header: an explicit
// REPRO_COMMIT wins (CI can pin the exact SHA it checked out), then git,
// then "unknown" — the trajectory is still useful without attribution.
func commitID() string {
	if c := os.Getenv("REPRO_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// ---- check mode ----

func runCheck(traj trajectory, threshold float64) error {
	if len(traj.History) < 2 {
		fmt.Printf("bench-check: %d entries in history, nothing to compare\n", len(traj.History))
		return nil
	}
	prev := traj.History[len(traj.History)-2]
	last := traj.History[len(traj.History)-1]
	prevBy := make(map[string]int64, len(prev.Scenarios))
	for _, s := range prev.Scenarios {
		prevBy[s.Name] = s.NsOp
	}
	var regressions []string
	for _, s := range last.Scenarios {
		base, ok := prevBy[s.Name]
		if !ok || base <= 0 {
			continue
		}
		ratio := float64(s.NsOp) / float64(base)
		mark := " "
		if ratio > 1+threshold {
			mark = "!"
			regressions = append(regressions,
				fmt.Sprintf("%s: %d -> %d ns/op (%.2fx)", s.Name, base, s.NsOp, ratio))
		}
		fmt.Printf("%s %-40s %12d -> %12d ns/op  %.2fx\n", mark, s.Name, base, s.NsOp, ratio)
	}
	if len(regressions) == 0 {
		fmt.Printf("bench-check: ok (%s -> %s, tolerance %.0f%%)\n",
			prev.Commit, last.Commit, threshold*100)
		return nil
	}
	if reason := os.Getenv("BENCH_ALLOW_REGRESSION"); reason != "" {
		fmt.Printf("bench-check: %d regression(s) ALLOWED: %s\n", len(regressions), reason)
		return nil
	}
	return fmt.Errorf("%d scenario(s) regressed more than %.0f%% (set BENCH_ALLOW_REGRESSION=<reason> if intentional):\n  %s",
		len(regressions), threshold*100, strings.Join(regressions, "\n  "))
}

func printDelta(prev, last entry) {
	prevBy := make(map[string]int64, len(prev.Scenarios))
	for _, s := range prev.Scenarios {
		prevBy[s.Name] = s.NsOp
	}
	fmt.Println("vs previous entry:")
	for _, s := range last.Scenarios {
		if base, ok := prevBy[s.Name]; ok && base > 0 && s.NsOp > 0 {
			fmt.Printf("  %-40s %.2fx\n", s.Name, float64(base)/float64(s.NsOp))
		}
	}
}

// ---- kernel microbenchmarks ----

// measure times fn adaptively: iteration count doubles until a run takes
// at least minDuration, and the best ns/op of three such runs is kept
// (the same best-of discipline as the enumeration scenarios).
func measure(fn func()) int64 {
	const minDuration = 20 * time.Millisecond
	fn() // warm up
	best := int64(0)
	for rep := 0; rep < 3; rep++ {
		iters := 1
		for {
			start := time.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			elapsed := time.Since(start)
			if elapsed >= minDuration {
				ns := elapsed.Nanoseconds() / int64(iters)
				if best == 0 || ns < best {
					best = ns
				}
				break
			}
			iters *= 2
		}
	}
	return best
}

// randomBitset fills a fresh n-bit set where each bit is set with
// probability p.
func randomBitset(rng *rand.Rand, n int, p float64) *bitset.Bitset {
	b := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
		}
	}
	return b
}

var sink int64 // defeats dead-code elimination of pure kernels

func kernelScenarios(seed int64) []scenarioResult {
	rng := rand.New(rand.NewSource(seed))
	const n = 1 << 20 // 16384 words: larger than L1, the level-join regime
	x := randomBitset(rng, n, 0.02)
	y := randomBitset(rng, n, 0.02)
	z := randomBitset(rng, n, 0.02)
	dst := bitset.New(n)
	opBytes := int64(x.Bytes())

	var out []scenarioResult
	add := func(name string, bytes int64, fn func()) {
		out = append(out, scenarioResult{Name: name, NsOp: measure(fn), Bytes: bytes})
		fmt.Printf("  bench %-40s done\n", name)
	}

	add("kernel/and", 3*opBytes, func() { dst.And(x, y) })
	add("kernel/count", opBytes, func() { sink += int64(x.Count()) })
	add("kernel/andcount", 2*opBytes, func() { sink += int64(x.AndCount(y)) })
	// The maximality probe as the enumerator runs it: a single fused
	// pass over the three operands, no intersection materialized.  (The
	// baseline entry in the history timed the unfused composition —
	// dst.And(x, y) then dst.IntersectsWith(z) — under the same names.)
	add("kernel/fused-and-probe", 3*opBytes, func() {
		if bitset.AndAny3(x, y, z) {
			sink++
		}
	})
	add("kernel/fused-andnot-probe", 2*opBytes, func() {
		if bitset.AndNotAny(x, y) {
			sink++
		}
	})

	out = append(out, rowProbeScenarios(seed)...)
	return out
}

// rowProbeScenarios time the per-representation row probe the join's
// maximality test performs: Row(u).IntersectsWith(candidate-CN bitmap)
// on a sparse genome-scale-shaped graph.
func rowProbeScenarios(seed int64) []scenarioResult {
	const n, deg = 100000, 32
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	target := int64(n) * int64(deg) / 2
	for i := int64(0); i < target; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			if err := b.AddEdge(u, v); err != nil {
				fatal(err)
			}
		}
	}
	b.WithRepresentation(graph.CSR)
	base, err := b.Freeze()
	if err != nil {
		fatal(err)
	}
	wahG, err := graph.Convert(base, graph.Compressed)
	if err != nil {
		fatal(err)
	}

	// The probe operand is a materialized two-row union — the shape of a
	// level-2 common-neighbor bitmap.
	cn := bitset.New(n)
	tmp := bitset.New(n)
	base.Materialize(7, cn)
	base.Materialize(11, tmp)
	cn.Or(cn, tmp)

	var out []scenarioResult
	add := func(name string, g graph.Interface) {
		ns := measure(func() {
			for v := 0; v < 4096; v++ {
				if g.Row(v).IntersectsWith(cn) {
					sink++
				}
			}
		})
		out = append(out, scenarioResult{Name: name, NsOp: ns / 4096, Bytes: int64(cn.Bytes())})
		fmt.Printf("  bench %-40s done\n", name)
	}
	add("kernel/csr-row-probe", base)
	add("kernel/wah-row-probe", wahG)
	return out
}

// ---- enumeration scenarios ----

func enumerationScenarios(reps int, scale float64, seed int64) ([]scenarioResult, error) {
	var out []scenarioResult

	dense, err := facadeScenario("enum/dense-n1200-planted", repro.Dense, denseBuild(1200, seed), reps)
	if err != nil {
		return nil, err
	}
	out = append(out, dense)

	csr, err := facadeScenario("enum/csr-sparse-n20000-deg32", repro.CSR, sparseBuild(20000, 32, seed), reps)
	if err != nil {
		return nil, err
	}
	out = append(out, csr)

	wah, err := facadeScenario("enum/wah-sparse-n20000-deg32", repro.Compressed, sparseBuild(20000, 32, seed), reps)
	if err != nil {
		return nil, err
	}
	out = append(out, wah)

	spec := expt.SpecA.Scale(scale)
	g := expt.Build(spec, seed)

	oocRes, err := oocScenario(g, reps)
	if err != nil {
		return nil, err
	}
	out = append(out, oocRes)

	hybridRes, err := hybridScenario(g, reps)
	if err != nil {
		return nil, err
	}
	out = append(out, hybridRes)
	return out, nil
}

type buildFunc struct {
	n     int
	build func(b *repro.GraphBuilder)
}

func sparseBuild(n, deg int, seed int64) buildFunc {
	return buildFunc{n: n, build: func(b *repro.GraphBuilder) {
		rng := rand.New(rand.NewSource(seed))
		target := int64(n) * int64(deg) / 2
		for i := int64(0); i < target; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}}
}

func denseBuild(n int, seed int64) buildFunc {
	return buildFunc{n: n, build: func(b *repro.GraphBuilder) {
		rng := rand.New(rand.NewSource(seed))
		g := graph.PlantedGraph(rng, n, []graph.PlantedCliqueSpec{
			{Size: 24}, {Size: 18, Overlap: 6}, {Size: 14, Overlap: 4},
		}, n*8)
		graph.ForEachEdge(g, func(u, v int) bool {
			b.AddEdge(u, v)
			return true
		})
	}}
}

func facadeScenario(name string, rep repro.Representation, bf buildFunc, reps int) (scenarioResult, error) {
	b := repro.NewGraphBuilder(bf.n)
	b.WithRepresentation(rep)
	bf.build(b)
	g, err := b.Freeze()
	if err != nil {
		return scenarioResult{}, err
	}
	res := scenarioResult{Name: name, Bytes: g.Bytes()}
	for i := 0; i < reps; i++ {
		start := time.Now()
		count, err := repro.NewEnumerator(repro.WithBounds(3, 0)).Run(context.Background(), g, nil)
		if err != nil {
			return res, err
		}
		ns := time.Since(start).Nanoseconds()
		if i == 0 || ns < res.NsOp {
			res.NsOp = ns
		}
		res.Cliques = count
	}
	fmt.Printf("  bench %-40s done\n", name)
	return res, nil
}

func oocScenario(g *graph.Graph, reps int) (scenarioResult, error) {
	res := scenarioResult{Name: "enum/ooc-table1A-parallel4-compressed"}
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp("", "benchall-ooc-*")
		if err != nil {
			return res, err
		}
		start := time.Now()
		st, err := ooc.Enumerate(g, ooc.Options{Dir: dir, Workers: 4, Compress: true})
		ns := time.Since(start).Nanoseconds()
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr // leftover spill dirs skew every later trial
		}
		if err != nil {
			return res, err
		}
		if i == 0 || ns < res.NsOp {
			res.NsOp = ns
		}
		res.Cliques = st.Maximal
		res.Bytes = st.BytesWritten
	}
	fmt.Printf("  bench %-40s done\n", res.Name)
	return res, nil
}

func hybridScenario(g *graph.Graph, reps int) (scenarioResult, error) {
	inCore, err := core.Enumerate(g, core.Options{})
	if err != nil {
		return scenarioResult{}, err
	}
	res := scenarioResult{Name: "enum/hybrid-table1A-quarter-budget"}
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp("", "benchall-hybrid-*")
		if err != nil {
			return res, err
		}
		gov := membudget.New(inCore.PeakBytes / 4)
		start := time.Now()
		hres, err := hybrid.Enumerate(g, hybrid.Options{Workers: 1, Dir: dir, Gov: gov})
		ns := time.Since(start).Nanoseconds()
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
		if err != nil {
			return res, err
		}
		if i == 0 || ns < res.NsOp {
			res.NsOp = ns
		}
		res.Cliques = hres.MaximalCliques
		res.Bytes = gov.Peak()
	}
	fmt.Printf("  bench %-40s done\n", res.Name)
	return res, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
	os.Exit(1)
}
