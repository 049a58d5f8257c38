package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// finalize derives the metrics that are not a median of their own
// samples: the failure share, and the tail of the uncached enumerate
// latency — the highest percentile with at least ten samples beyond it,
// which is p99 only once a run holds a thousand misses.
func (r *result) finalize() {
	if r.attempted > 0 {
		r.samples["fail_frac"] = []float64{float64(r.failed) / float64(r.attempted)}
	}
	if xs := r.samples["enum_p50_ms"]; len(xs) > 0 {
		if p, v, ok := highestValidPercentile(xs); ok {
			r.samples["enum_tail_ms"] = []float64{v}
			r.samples["enum_tail_pct"] = []float64{p}
			if p >= 99 {
				r.samples["enum_p99_ms"] = []float64{percentile(xs, 99)}
			}
		}
	}
}

// workloadRecord is everything one workload produced in a full run.
type workloadRecord struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer"`
}

// record is one full run: the header and a workloadRecord per workload.
type record struct {
	Header    map[string]string `json:"header"`
	Seed      int64             `json:"seed"`
	Workloads []*workloadRecord `json:"workloads"`
}

func (rec *record) failed() int {
	n := 0
	for _, w := range rec.Workloads {
		n += w.Failed
	}
	return n
}

func (rec *record) workload(name string) *workloadRecord {
	for _, w := range rec.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// e2e is the median of an end-to-end metric on a workload (0 if absent).
func (rec *record) e2e(workload, metric string) float64 {
	return rec.summary(workload, metric).Median
}

func (rec *record) layer(workload, metric string) float64 {
	if w := rec.workload(workload); w != nil {
		return w.Layer[metric]
	}
	return 0
}

// fullRun measures every named workload with fixed repetition counts:
// set-up, the untraced runs, then the traced run, one workload after the
// other, and prints the report.
func fullRun(e *env, spec *benchSpec, names []string, p plan, stdout io.Writer) (*record, error) {
	rec := &record{Header: e.header(), Seed: e.seed}
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		e.logf("%s: set-up, untraced runs, traced run ...", name)
		wr, err := runWorkload(e, w, p)
		if err != nil {
			return nil, err
		}
		rec.Workloads = append(rec.Workloads, wr)
	}
	rec.print(spec, stdout)
	return rec, nil
}

func runWorkload(e *env, w workload, p plan) (wr *workloadRecord, err error) {
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	setupS, err := timedSetup(e, w, p)
	if err != nil {
		return nil, err
	}
	base := newResult()
	if err := w.measure(e, p, base); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	base.add("setup_s", setupS)
	base.finalize()
	traced := newResult()
	if err := w.trace(e, p, base, traced); err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name(), err)
	}
	wr = &workloadRecord{
		Name:      w.name(),
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed,
		Failures:  append(base.failures, traced.failures...),
		EndToEnd:  make(map[string]summary),
		Layer:     traced.layer,
	}
	for _, name := range base.metricNames() {
		// The daemon's counters are taken in the untraced run but belong
		// to a layer.
		if strings.HasPrefix(name, "service.") {
			wr.Layer[name] = median(base.samples[name])
			continue
		}
		wr.EndToEnd[name] = summarize(base.samples[name])
	}
	return wr, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (rec *record) print(spec *benchSpec, w io.Writer) {
	units := make(map[string]string)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	fmt.Fprintf(w, "# benchmark: seed %d", rec.Seed)
	for _, k := range sortedKeys(rec.Header) {
		fmt.Fprintf(w, ", %s %s", k, rec.Header[k])
	}
	fmt.Fprintln(w, "\n\n## end-to-end (tracing off)")
	for _, wl := range rec.Workloads {
		fmt.Fprintf(w, "\n%s: %d operations, %d failed\n", wl.Name, wl.Attempted, wl.Failed)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		fmt.Fprintf(w, "  %-16s %-6s %12s %12s %12s %16s %5s\n", "metric", "unit", "median", "q1", "q3", "tail", "n")
		for _, name := range sortedKeys(wl.EndToEnd) {
			s := wl.EndToEnd[name]
			tail := "-"
			if s.TailPct > 0 {
				tail = fmt.Sprintf("p%g=%.4g", s.TailPct, s.Tail)
			}
			fmt.Fprintf(w, "  %-16s %-6s %12.6g %12.6g %12.6g %16s %5d\n", name, units[name], s.Median, s.Q1, s.Q3, tail, s.N)
		}
	}
	fmt.Fprintln(w, "\n## per layer (traced run)")
	for _, wl := range rec.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		for _, name := range sortedKeys(wl.Layer) {
			fmt.Fprintf(w, "  %-32s %-8s %14.6g\n", name, units[name], wl.Layer[name])
		}
	}
}

// write stores the record machine-readably and regenerates PERF.md.
func (rec *record) write(e *env, spec *benchSpec) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.outDir, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(rec.Workloads) < len(allWorkloads()) {
		return nil // a filtered run cannot judge the cross-workload anomalies
	}
	return os.WriteFile(filepath.Join(e.root, "benchmark", "PERF.md"), []byte(rec.perfMD()), 0o644)
}

// ---- selfcheck ----

// exactMetrics repeat exactly between two runs of the same code.
var exactMetrics = map[string]bool{
	"spill_mb": true, "core.cands": true, "hybrid.spilled_at": true, "ooc.records": true,
}

// selfcheck compares two complete sets of runs of the same code: per
// metric and workload the two medians, their relative difference, the
// spread (IQR/median) of each, and PASS or FAIL against the bound.  A
// timing metric's bound in BENCHMARK.json should be at least twice the
// spread printed here; the last column says what this run would ask for.
func selfcheck(spec *benchSpec, a, b *record, w io.Writer) bool {
	ok := true
	fmt.Fprintln(w, "\n## selfcheck: two sets of runs of the same code")
	fmt.Fprintf(w, "  %-14s %-16s %12s %12s %8s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		for _, name := range sortedKeys(wa.EndToEnd) {
			sa, sb := wa.EndToEnd[name], wb.EndToEnd[name]
			bound, gated := spec.bound(name)
			if !gated {
				bound = 0.25
			}
			diff := 0.0
			if sa.Median != 0 {
				diff = (sb.Median - sa.Median) / sa.Median
			}
			spreadOf := func(s summary) float64 {
				if s.Median == 0 {
					return 0
				}
				return (s.Q3 - s.Q1) / s.Median
			}
			// The second set fails when it is worse than the first by more
			// than the bound; every end-to-end metric is lower-is-better
			// except req_per_s.  Metrics BENCHMARK.json does not bound are
			// shown against 25 % but do not decide the outcome.
			worse := diff
			if name == "req_per_s" {
				worse = -diff
			}
			verdict := "PASS"
			switch {
			case exactMetrics[name] || (name == "gov_peak_mb" && wa.Name != "cliqued-mix"):
				if sa.Median != sb.Median {
					verdict = "FAIL (must repeat exactly)"
					ok = false
				}
			case worse > bound && gated:
				verdict = "FAIL"
				ok = false
			case worse > bound:
				verdict = "worse (not bounded)"
			}
			want := math.Max(0.10, 2*math.Max(spreadOf(sa), spreadOf(sb)))
			fmt.Fprintf(w, "  %-14s %-16s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s (2x spread asks %.0f%%)\n",
				wa.Name, name, sa.Median, sb.Median, 100*diff, 100*spreadOf(sa), 100*spreadOf(sb), 100*bound, verdict, 100*want)
		}
		for _, name := range sortedKeys(wa.Layer) {
			if exactMetrics[name] && wa.Layer[name] != wb.Layer[name] {
				ok = false
				fmt.Fprintf(w, "  %-14s %-16s %12.6g %12.6g  FAIL (must repeat exactly)\n", wa.Name, name, wa.Layer[name], wb.Layer[name])
			}
		}
	}
	return ok
}

// ---- PERF.md ----

// dominantSpans names the (at most three) span names with the largest
// self-time share of the traced run, from its share.<span> metrics.
func (wl *workloadRecord) dominantSpans() []string {
	type kv struct {
		name string
		v    float64
	}
	var spans []kv
	for name, v := range wl.Layer {
		if strings.HasPrefix(name, "share.") {
			spans = append(spans, kv{strings.TrimPrefix(name, "share."), v})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].v > spans[j].v })
	var out []string
	for i, s := range spans {
		if i == 3 || s.v < 0.02 {
			break
		}
		out = append(out, fmt.Sprintf("%s %.0f%%", s.name, 100*s.v))
	}
	return out
}

func (rec *record) perfMD() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# PERF — generated by `go run -C benchmark . -seed %d`\n\n", rec.Seed)
	b.WriteString("Do not edit: the benchmark rewrites this file from its latest full run.\n")
	b.WriteString("Numbers are medians of untraced runs; shares are self time of the traced run.\n\n")
	fmt.Fprintf(&b, "Record taken on: commit %s, %s, nproc %s, GOMAXPROCS %s, spill filesystem %s.\n\n",
		rec.Header["commit"], rec.Header["go"], rec.Header["nproc"], rec.Header["gomaxprocs"], rec.Header["spill_fs"])
	b.WriteString("## Where the time goes\n\n| workload | wall_s (1 worker) | wall_2w_s | dominant spans (share of traced wall) | unattributed |\n|---|---|---|---|---|\n")
	for _, wl := range rec.Workloads {
		fmt.Fprintf(&b, "| %s | %.4g | %.4g | %s | %.1f%% |\n", wl.Name,
			wl.EndToEnd["wall_s"].Median, wl.EndToEnd["wall_2w_s"].Median,
			strings.Join(wl.dominantSpans(), ", "), 100*wl.Layer["trace.unattributed_frac"])
	}
	b.WriteString("\n## ROADMAP anomalies\n\n")
	for _, a := range rec.anomalies() {
		fmt.Fprintf(&b, "- **%s** — %s. %s\n", a.title, a.status, a.because)
	}
	return b.String()
}

type anomaly struct{ title, status, because string }

func reproduced(yes bool) string {
	if yes {
		return "reproduced"
	}
	return "not reproduced"
}

// slower says whether a's median exceeds b's, or "unresolved" when the two
// medians are closer than the wider of their inter-quartile ranges: a
// difference inside the spread of the repetitions is not a finding.
func slower(a, b summary) string {
	if math.Abs(a.Median-b.Median) <= math.Max(a.Q3-a.Q1, b.Q3-b.Q1) {
		return "unresolved (the difference is inside the spread of the repetitions)"
	}
	return reproduced(a.Median > b.Median)
}

func (rec *record) summary(workload, metric string) summary {
	if w := rec.workload(workload); w != nil {
		return w.EndToEnd[metric]
	}
	return summary{}
}

// anomalies states, for each anomaly the ROADMAP lists, whether this
// record shows it and which layer metric accounts for it.
func (rec *record) anomalies() []anomaly {
	ratio := func(wl string) (one, two, r float64) {
		one, two = rec.e2e(wl, "wall_s"), rec.e2e(wl, "wall_2w_s")
		if one > 0 {
			r = two / one
		}
		return
	}
	var out []anomaly

	one, two, r := ratio("ooc-c75")
	io := rec.layer("ooc-c75", "ooc.seed_write_s") + rec.layer("ooc-c75", "ooc.shard_read_s")
	out = append(out, anomaly{
		"out-of-core: 2 workers ≈ 1 worker on raw shards",
		reproduced(r > 0.85),
		fmt.Sprintf("wall_s %.3g s, wall_2w_s %.3g s (x%.2f). Of the benchmark-driven 1-worker loop, ooc.join_write_s is %.3g s (decode alone, ooc.decode_raw_s: %.3g s on the largest level), shard reads and the edge spill %.3g s; ooc.engine_overhead_s is %.3g s, the part the engine adds around the join that a second joiner cannot shorten",
			one, two, r, rec.layer("ooc-c75", "ooc.join_write_s"), rec.layer("ooc-c75", "ooc.decode_raw_s"), io, rec.layer("ooc-c75", "ooc.engine_overhead_s")),
	})

	one, two, r = ratio("hybrid-c75")
	out = append(out, anomaly{
		"hybrid: slower with workers than without",
		slower(rec.summary("hybrid-c75", "wall_2w_s"), rec.summary("hybrid-c75", "wall_s")),
		fmt.Sprintf("wall_s %.3g s, wall_2w_s %.3g s (x%.2f). The 1-worker run spends hybrid.incore_s %.3g s before the trip at level %g, hybrid.spill_level_s %.3g s in the drain, hybrid.ooc_s %.3g s after it; against compressed shards from the start it runs at x%.2f (hybrid.vs_ooc_cmp)",
			one, two, r, rec.layer("hybrid-c75", "hybrid.incore_s"), rec.layer("hybrid-c75", "hybrid.spilled_at"),
			rec.layer("hybrid-c75", "hybrid.spill_level_s"), rec.layer("hybrid-c75", "hybrid.ooc_s"), rec.layer("hybrid-c75", "hybrid.vs_ooc_cmp")),
	})

	one, two, r = ratio("incore-c75")
	out = append(out, anomaly{
		"in core: the 2-worker pool is slower than the sequential backend",
		slower(rec.summary("incore-c75", "wall_2w_s"), rec.summary("incore-c75", "wall_s")),
		fmt.Sprintf("wall_s %.3g s, wall_2w_s %.3g s (x%.2f). parallel.busy_frac is %.2f over parallel.level_s %.3g s with %g transfers, against core.step_s %.3g s for the same join on one thread; the bulk-synchronous pool takes parallel.barrier_wall_s %.3g s",
			one, two, r, rec.layer("incore-c75", "parallel.busy_frac"), rec.layer("incore-c75", "parallel.level_s"),
			rec.layer("incore-c75", "parallel.transfers"), rec.layer("incore-c75", "core.step_s"), rec.layer("incore-c75", "parallel.barrier_wall_s")),
	})

	distTwo, oocTwo := rec.e2e("dist-c75", "wall_2w_s"), rec.e2e("ooc-c75", "wall_2w_s")
	out = append(out, anomaly{
		"2 dist worker processes beat 2 ooc worker threads",
		slower(rec.summary("ooc-c75", "wall_2w_s"), rec.summary("dist-c75", "wall_2w_s")),
		fmt.Sprintf("dist-c75 wall_2w_s %.3g s against ooc-c75 wall_2w_s %.3g s; at one worker distribution costs dist.over_ooc_s %.3g s, of which dist.fixed_s %.3g s is spawn, handshake and manifest commits",
			distTwo, oocTwo, rec.layer("dist-c75", "dist.over_ooc_s"), rec.layer("dist-c75", "dist.fixed_s")),
	})

	wall := rec.e2e("cli-sparse20k", "wall_s")
	load := rec.layer("cli-sparse20k", "graph.parse_s") + rec.layer("cli-sparse20k", "graph.freeze_s")
	bound, seed := rec.layer("cli-sparse20k", "maxclique.bound_s"), rec.layer("cli-sparse20k", "core.seed_s")
	out = append(out, anomaly{
		"CSR/sparse scenario flat after a 2x row-probe win",
		reproduced(wall > 0 && (load+bound)/wall > 0.5),
		fmt.Sprintf("of cli-sparse20k wall_s %.3g s, loading the graph is %.3g s (graph.parse_s + graph.freeze_s) and maxclique.bound_s %.3g s; enumeration is core.seed_s %.3g s of seeding (graph.row_andinto_csr_ns %.3g ns per row AND) with core.step_s %.3g s of level loop, so the row probe (graph.row_probe_csr_ns %.3g ns) is not on this workload's path",
			wall, load, bound, seed, rec.layer("cli-sparse20k", "graph.row_andinto_csr_ns"),
			rec.layer("cli-sparse20k", "core.step_s"), rec.layer("cli-sparse20k", "graph.row_probe_csr_ns")),
	})
	return out
}
