package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro"
)

// plan says how much one workload measures.  The contract run is bounded
// by time (seconds > 0); the full recorded run uses fixed repetition
// counts, identical on every commit.
type plan struct {
	seconds float64 // time budget of the timed section; 0 = fixed counts
	floor   int     // fewest repetitions per configuration a time-bounded run makes
	scale   float64 // -reps-scale, applied to the fixed counts
	tiny    bool    // harness tests: 16-200 vertex graphs, one repetition
}

// reps scales a fixed repetition count, never below one.
func (p plan) reps(full int) int {
	if p.tiny {
		return 1
	}
	n := int(float64(full)*p.scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// result collects what one workload's runs produced.
type result struct {
	samples   map[string][]float64 // end-to-end samples, from untraced runs only
	layer     map[string]float64   // per-layer metrics, from the traced run
	attempted int
	failed    int
	failures  []string
	shed      int // requests the daemon refused with 503 or 507
}

func newResult() *result {
	return &result{samples: make(map[string][]float64), layer: make(map[string]float64)}
}

func (r *result) add(metric string, v float64) {
	r.samples[metric] = append(r.samples[metric], v)
}

// op counts one attempted operation: a run, a child process, a request.
// An operation fails when it errored, exited non-zero, was shed, or its
// clique stream does not match the reference.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if errors.Is(err, errShed) {
			r.shed++
		}
		if len(r.failures) < 8 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// value is the reported value of an end-to-end metric: the median of its
// samples (a metric measured once has one sample).
func (r *result) value(metric string) (float64, bool) {
	xs := r.samples[metric]
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

func (r *result) metricNames() []string {
	names := make([]string, 0, len(r.samples))
	for n := range r.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workload is one set of inputs and the way they are run.  setup may be
// called several times (set-up time is reported as a median); each call
// follows a close.
type workload interface {
	name() string
	// setup generates the inputs from the seed, writes the files, computes
	// the reference and starts what must be running (the daemon).
	setup(e *env, seed int64, p plan) error
	// measure makes the untraced timed runs and records end-to-end samples.
	measure(e *env, p plan, r *result) error
	// trace makes the traced run and the layer measurements behind it and
	// records per-layer metrics; base is the untraced result it compares to.
	trace(e *env, p plan, base *result, r *result) error
	close() error
}

func allWorkloads() []workload {
	return []workload{
		&incoreC75{}, &cliSparse20k{}, &oocC75{}, &hybridC75{}, &distC75{}, &cliquedMix{},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.name())
	}
	return names
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads() {
		if w.name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// repOut is one complete enumeration as its caller saw it.
type repOut struct {
	start   time.Time
	wall    float64     // seconds
	ttfc    float64     // seconds to the first clique delivered
	govPeak int64       // governor peak, bytes
	rssMB   float64     // child processes only
	spill   int64       // encoded bytes written to spill files
	stats   repro.Stats // in-process runs only: what the facade reported
}

// runInterleaved is the shared load shape of the five enumeration
// workloads: closed, sequential repetitions, 1-worker and 2-worker ones
// interleaved so that drift of the box hits both alike, after one
// discarded warm-up each.
func runInterleaved(e *env, p plan, fullReps int, r *result, rep func(workers int) (repOut, error)) error {
	for _, w := range []int{1, maxWorkers} {
		if _, err := rep(w); err != nil {
			return fmt.Errorf("warm-up at %d worker(s): %w", w, err)
		}
	}
	start := time.Now()
	var lastPair time.Duration
	for i := 0; ; i++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		if p.seconds == 0 {
			if i >= p.reps(fullReps) {
				break
			}
		} else if i >= p.floor && time.Since(start)+lastPair > time.Duration(p.seconds*float64(time.Second)) {
			break
		}
		pairStart := time.Now()
		one, err := rep(1)
		r.op(err)
		if err == nil {
			r.add("wall_s", one.wall)
			r.add("ttfc_ms", one.ttfc*1e3)
			r.add("gov_peak_mb", float64(one.govPeak)/1e6)
			if one.rssMB > 0 {
				r.add("rss_peak_mb", one.rssMB)
			}
			if one.spill > 0 {
				r.add("spill_mb", float64(one.spill)/1e6)
			}
		}
		two, err := rep(maxWorkers)
		r.op(err)
		if err == nil {
			r.add("wall_2w_s", two.wall)
		}
		lastPair = time.Since(pairStart)
		if p.tiny {
			break
		}
	}
	// An in-process workload has no child to ask: its resident set is the
	// harness's own.
	if len(r.samples["rss_peak_mb"]) == 0 {
		r.add("rss_peak_mb", selfMaxRSSMB())
	}
	return nil
}
