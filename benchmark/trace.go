package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The tracer records one span per call the benchmark makes into a layer
// (spans inside the program are a later change): name, layer, start, end
// and the span that caused it.  Spans are kept in memory and written out
// when the run ends.  A nil *tracer records nothing, so the untraced
// runs that produce the end-to-end numbers pay nothing.

// layerHarness marks time that belongs to no layer of the program: the
// root span of a run and anything the benchmark does between layer calls.
const layerHarness = "harness"

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Run    string `json:"run"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by finish
}

type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// start opens a span under parent (0 for the root) and returns its id.
func (t *tracer) start(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Layer: layer, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return float64(s.End-s.Start) / 1e9
}

// add records a span whose boundaries were observed from outside (a line
// of a child's output, an OnLevel callback).
func (t *tracer) add(parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// finish computes every span's self time: its duration minus the part of
// that interval its child spans cover (children may overlap each other).
// It reports an error for an unclosed span or a child outside its parent.
func (t *tracer) finish() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("trace: span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			c := t.spans[k]
			if c.End <= edge {
				continue
			}
			from := c.Start
			if from < edge {
				from = edge
			}
			covered += c.End - from
			edge = c.End
		}
		s.Self = (s.End - s.Start) - covered
	}
	return nil
}

// selfByLayer sums self time per layer, in seconds.  Call after finish.
func (t *tracer) selfByLayer() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Layer] += float64(s.Self) / 1e9
	}
	return out
}

// selfByName sums self time per span name, in seconds.
func (t *tracer) selfByName() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.Self) / 1e9
	}
	return out
}

// maxByName is the longest single span of that name, in seconds.
func (t *tracer) maxByName(name string) float64 {
	m := int64(0)
	for _, s := range t.spans {
		if s.Name == name && s.End-s.Start > m {
			m = s.End - s.Start
		}
	}
	return float64(m) / 1e9
}

// wall is the root span's duration in seconds.
func (t *tracer) wall() float64 {
	if len(t.spans) == 0 {
		return 0
	}
	return float64(t.spans[0].End-t.spans[0].Start) / 1e9
}

// unattributed is the share of the root span's duration that no named
// layer accounts for.
func (t *tracer) unattributed() float64 {
	w := t.wall()
	if w == 0 {
		return 0
	}
	return t.selfByLayer()[layerHarness] / w
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Run      string             `json:"run"`
	WallS    float64            `json:"wall_s"`
	Layers   map[string]float64 `json:"self_s_by_layer"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(traceFile{
		Workload: workload, Seed: seed, Run: t.run, WallS: t.wall(),
		Layers: t.selfByLayer(), Spans: t.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
