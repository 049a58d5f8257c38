// Command benchmark is the repository's one performance instrument: six
// workloads, one per execution regime a user can select, measured end to
// end with tracing off, and once more traced so that wall time is
// attributed to layers.  See README.md in this directory.
//
//	go run -C benchmark . -seed 1                  the full recorded run
//	go run -C benchmark . -selfcheck               two full sets, compared
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                               one run, as the driver makes it
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// setupRounds is how often a run sets up; set-up time is their median.
const setupRounds = 5

type options struct {
	root      string
	workload  string // contract mode: exactly one workload, one JSON line
	workloads string // full mode: comma-separated filter
	seed      int64
	seconds   float64
	trace     int
	scale     float64
	selfcheck bool
	tiny      bool
	verbose   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.root, "root", "", "checkout root (default: the working directory or its parent)")
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line (the driver's contract)")
	fs.StringVar(&o.workloads, "workloads", "", "full run: comma-separated subset of workloads, for local iteration")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.Float64Var(&o.seconds, "seconds", 0, "with -workload: how long the timed section measures")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	fs.Float64Var(&o.scale, "reps-scale", 1, "full run: scale the fixed repetition counts, for local iteration")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two complete sets back to back and compare them against the bounds")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny inputs and one repetition: exercises the harness, measures nothing")
	fs.BoolVar(&o.verbose, "v", false, "with -workload: print every raw sample on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A reader that went away must not kill the run before it cleaned up:
	// with SIGPIPE ignored the write fails and every defer still runs.
	signal.Ignore(syscall.SIGPIPE)
	code, err := runMode(ctx, o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
	}
	return code
}

func runMode(ctx context.Context, o options, stdout, stderr io.Writer) (code int, err error) {
	root, err := findRoot(o.root)
	if err != nil {
		return 1, err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	e, err := newEnv(ctx, root, stderr)
	if err != nil {
		return 1, err
	}
	e.seed = o.seed
	// Every exit path below returns through here: no input, spill file or
	// output of the run outlives it.
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			code, err = 1, cerr
		}
	}()

	if o.workload != "" {
		if o.seconds <= 0 {
			o.seconds = float64(spec.RunSeconds)
		}
		return contractRun(e, spec, o, stdout)
	}
	p := plan{scale: o.scale, tiny: o.tiny}
	// The full run measures every regime; BENCHMARK.json lists the ones
	// steady enough on this box for the driver to gate on.
	names := workloadNames()
	if o.workloads != "" {
		names = strings.Split(o.workloads, ",")
	}
	first, err := fullRun(e, spec, names, p, stdout)
	if err != nil {
		return 1, err
	}
	if o.selfcheck {
		second, err := fullRun(e, spec, names, p, io.Discard)
		if err != nil {
			return 1, err
		}
		if !selfcheck(spec, first, second, stdout) {
			return 1, fmt.Errorf("selfcheck: two sets of runs of the same code disagree beyond the bounds")
		}
	}
	if err := first.write(e, spec); err != nil {
		return 1, err
	}
	if first.failed() > 0 {
		return 1, fmt.Errorf("%d operation(s) failed or produced a stream that does not match the reference", first.failed())
	}
	return 0, nil
}

// timedSetup sets the workload up setupRounds times (closing it in
// between) and returns the median: input generation, file writes, the
// reference run with its oracle cross-check, daemon boot.  Warm-up
// repetitions are not part of it; they are the first thing measure does.
func timedSetup(e *env, w workload, p plan) (float64, error) {
	var took []float64
	rounds := setupRounds
	if p.tiny {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := w.setup(e, e.seed, p); err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	return median(took), nil
}

// contractRun is one run as the driver makes it: one workload, a time
// budget, and as the last line of stdout one JSON object.
func contractRun(e *env, spec *benchSpec, o options, stdout io.Writer) (code int, err error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return 1, err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			code, err = 1, cerr
		}
	}()
	p := plan{seconds: o.seconds, floor: 3, scale: 1, tiny: o.tiny}
	setupS, err := timedSetup(e, w, p)
	if err != nil {
		return 1, err
	}
	r := newResult()
	metrics := make(map[string]metricValue)
	if o.trace == 0 {
		if err := w.measure(e, p, r); err != nil {
			return 1, fmt.Errorf("%s: %w", w.name(), err)
		}
		r.add("setup_s", setupS)
		r.finalize()
		for _, m := range spec.EndToEnd {
			v, ok := r.value(m.Name)
			if !ok {
				return 1, fmt.Errorf("%s produced no sample of end-to-end metric %s", w.name(), m.Name)
			}
			metrics[m.Name] = metricValue{v, m.Unit}
		}
	} else {
		// The traced run compares itself to a short untraced one taken in
		// the same process: end-to-end numbers never come from traced runs.
		base := newResult()
		bp := p
		bp.seconds, bp.floor = o.seconds/3, 1
		if err := w.measure(e, bp, base); err != nil {
			return 1, fmt.Errorf("%s: %w", w.name(), err)
		}
		base.finalize()
		if err := w.trace(e, p, base, r); err != nil {
			return 1, fmt.Errorf("%s: traced run: %w", w.name(), err)
		}
		r.attempted += base.attempted
		r.failed += base.failed
		r.failures = append(r.failures, base.failures...)
		for _, m := range spec.PerLayer {
			metrics[m.Name] = metricValue{layerValue(m.Name, base, r), m.Unit}
		}
	}
	for _, f := range r.failures {
		e.logf("%s: failed: %s", w.name(), f)
	}
	if o.verbose {
		for _, name := range r.metricNames() {
			e.logf("%s: %s samples %.4g", w.name(), name, r.samples[name])
		}
	}
	line, err := json.Marshal(contractResult{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics,
	})
	if err != nil {
		return 1, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return 0, err
}

// layerValue is the value of a per-layer metric in a traced run: measured
// by the traced run, or an untraced number that is reported beside the
// layers because it applies to some workloads only (spill_mb, the service
// latencies, fail_frac); 0 when the workload does not exercise the layer.
func layerValue(name string, base, traced *result) float64 {
	if v, ok := traced.layer[name]; ok {
		return v
	}
	if v, ok := base.value(name); ok {
		return v
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// ---- BENCHMARK.json ----

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the names, units and bounds this program
// reports are read from it, so the two cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) bound(metric string) (float64, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == metric {
			return m.Bound, true
		}
	}
	return 0, false
}
