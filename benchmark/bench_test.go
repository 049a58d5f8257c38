package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The harness tests run every workload in the tiny plan (graphs of a few
// hundred vertices, one repetition): they check the instrument, not the
// program's speed.  Run them with `go test -C benchmark ./...`.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyRun makes one contract run in the tiny plan and decodes its result.
func tinyRun(t *testing.T, workload string, trace int) contractResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-tiny", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", strconv.Itoa(trace)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res contractResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last stdout line is not the result object: %v\n%s", workload, trace, err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d: %s", workload, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

func TestBenchmarkJSONWithinTheContract(t *testing.T) {
	spec := testSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s, unit s, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
	}
}

// TestEveryDeclaredMetricIsEmitted runs each workload untraced and traced:
// the untraced result must carry every end-to-end metric, never 0, and the
// traced one every per-layer metric; and every per-layer metric must be
// measured (non-zero or a counter that is legitimately 0) by some workload.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	spec := testSpec(t)
	mayBeZero := map[string]bool{ // counters whose healthy value is 0
		"dist.releases": true, "dist.deaths": true, "service.queued": true, "service.shed": true,
		"service.residual_bytes": true, "fail_frac": true, "hybrid.incore_s": true,
		"enum_p99_ms":        true, // needs a thousand misses: the full run has them, a short one does not
		"parallel.transfers": true, // a tiny level may be finished before anyone steals
	}
	measured := make(map[string]bool)
	for _, name := range workloadNames() {
		res := tinyRun(t, name, 0)
		for _, m := range spec.EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Value == 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a non-zero value in %s", name, m.Name, v, ok, m.Unit)
			}
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: untraced run reports %d metrics, want exactly the %d end-to-end ones", name, len(res.Metrics), len(spec.EndToEnd))
		}
		res = tinyRun(t, name, 1)
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: traced run reports %d metrics, want exactly the %d per-layer ones", name, len(res.Metrics), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s missing or in the wrong unit: %+v", name, m.Name, v)
			}
			if v.Value != 0 {
				measured[m.Name] = true
			}
		}
		if name == "cliqued-mix" && res.Metrics["service.residual_bytes"].Value != 0 {
			t.Errorf("daemon reports %v residual bytes after the mix", res.Metrics["service.residual_bytes"].Value)
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] && !mayBeZero[m.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload: nothing measures it", m.Name)
		}
	}
	checkTraceFiles(t)
	checkNothingLeft(t)
}

// checkTraceFiles reads back the traces the runs above wrote: spans nest
// (child inside parent), self time is never negative, one run id per run.
func checkTraceFiles(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		data, err := os.ReadFile(filepath.Join(root, "benchmark", "out", "trace-"+name+".json"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(tf.Spans) < 2 {
			t.Errorf("%s: trace holds %d spans", name, len(tf.Spans))
		}
		for _, s := range tf.Spans {
			if s.Run != tf.Run {
				t.Errorf("%s: span %d carries run id %q, the trace %q", name, s.ID, s.Run, tf.Run)
			}
			if s.Self < 0 || s.End < s.Start {
				t.Errorf("%s: span %d (%s): self %d ns, start %d, end %d", name, s.ID, s.Name, s.Self, s.Start, s.End)
			}
			if s.Parent != 0 {
				p := tf.Spans[s.Parent-1]
				if s.Start < p.Start || s.End > p.End {
					t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", name, s.ID, s.Name, p.ID, p.Name)
				}
			}
		}
	}
}

// checkNothingLeft asserts that no temp root and no child process of this
// test binary is left behind.
func checkNothingLeft(t *testing.T) {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("temp roots left behind: %v", left)
	}
	if kids := childProcesses(t); len(kids) > 0 {
		t.Errorf("child processes left behind: %v", kids)
	}
}

// childProcesses lists live (non-zombie) processes whose parent is this one.
func childProcesses(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var kids []string
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the process exited while we were looking
		}
		// pid (comm) state ppid ...; comm may hold spaces, so cut after ")".
		_, rest, ok := strings.Cut(string(data), ") ")
		fields := strings.Fields(rest)
		if !ok || len(fields) < 2 || fields[0] == "Z" {
			continue
		}
		if ppid, _ := strconv.Atoi(fields[1]); ppid == os.Getpid() {
			cmdline, _ := os.ReadFile(filepath.Join(filepath.Dir(path), "cmdline"))
			kids = append(kids, strings.ReplaceAll(string(cmdline), "\x00", " "))
		}
	}
	return kids
}

// TestFailingWorkloadLeavesNothing makes workloads fail half-way — the
// cliquer binary missing, the run canceled while the daemon is up — and
// checks that close still removes every directory and stops every process.
func TestFailingWorkloadLeavesNothing(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := newEnv(ctx, root, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	p := plan{tiny: true}

	e.cliquer = filepath.Join(e.tmp, "no-such-binary")
	dist := &distC75{}
	if err := dist.setup(e, 3, p); err != nil {
		t.Fatal(err)
	}
	if err := dist.measure(e, p, newResult()); err == nil {
		t.Error("dist-c75 with a missing cliquer binary: measure succeeded")
	}
	if err := dist.close(); err != nil {
		t.Error(err)
	}

	mix := &cliquedMix{}
	if err := mix.setup(e, 3, p); err != nil {
		t.Fatal(err)
	}
	cancel() // the daemon is up; the run is abandoned
	if err := mix.measure(e, p, newResult()); err == nil {
		t.Error("cliqued-mix on a canceled run: measure succeeded")
	}
	mix.close() // the error is that of a killed daemon; what matters is below
	if err := e.close(); err != nil {
		t.Error(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(childProcesses(t)) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	checkNothingLeft(t)
}

func TestSpansNestAndSelfTime(t *testing.T) {
	tr := newTracer("run-1")
	base := tr.t0
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, layerHarness, "run", at(0), at(100))
	a := tr.add(root, "core", "a", at(10), at(60))
	tr.add(a, "reporter", "a.emit", at(20), at(30))
	tr.add(a, "reporter", "a.emit", at(25), at(40)) // overlaps its sibling
	tr.add(root, "ooc", "b", at(60), at(95))
	if err := tr.finish(); err != nil {
		t.Fatal(err)
	}
	ms := func(ns int64) int64 { return ns / 1e6 }
	if got := ms(tr.spans[root-1].Self); got != 15 {
		t.Errorf("root self = %d ms, want 15 (100 - 50 - 35)", got)
	}
	if got := ms(tr.spans[a-1].Self); got != 30 {
		t.Errorf("a self = %d ms, want 30 (50 minus the 20 ms its overlapping children cover)", got)
	}
	if got := tr.unattributed(); got < 0.149 || got > 0.151 {
		t.Errorf("unattributed = %v, want 0.15", got)
	}
	for _, s := range tr.spans {
		if s.Run != "run-1" || s.Self < 0 {
			t.Errorf("span %+v: want run id run-1 and self >= 0", s)
		}
	}

	bad := newTracer("run-2")
	root = bad.add(0, layerHarness, "run", bad.t0, bad.t0.Add(time.Second))
	bad.add(root, "core", "late", bad.t0.Add(900*time.Millisecond), bad.t0.Add(1100*time.Millisecond))
	if err := bad.finish(); err == nil {
		t.Error("a child that ends after its parent must be refused")
	}
	open := newTracer("run-3")
	open.start(0, layerHarness, "run")
	if err := open.finish(); err == nil {
		t.Error("an unclosed span must be refused")
	}
}

func TestHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // 0: none valid
	}{{9, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {1056, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, ok := highestValidPercentile(xs)
		if ok != (c.want != 0) || p != c.want {
			t.Errorf("n=%d: percentile %v (ok=%v), want %v", c.n, p, ok, c.want)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%v = %v has only %d samples beyond it", c.n, p, v, beyond)
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
