package main

import (
	"fmt"
	"time"

	"repro"
)

// trace runs the real hybrid backend once through the facade with an
// OnLevel observer; the spans are the intervals between its callbacks,
// named after the phase the step belonged to: in core, the step in which
// the governor tripped (drain plus spill-mode join), out of core.
func (w *hybridC75) trace(e *env, p plan, base, r *result) error {
	l := r.layer
	type levelEnd struct {
		fromK int
		at    time.Time
	}
	var ends []levelEnd
	tr := newTracer(traceID(w.name()))
	run, err := w.rep(e, 1, repro.WithOnLevel(func(ls repro.LevelStats) { ends = append(ends, levelEnd{ls.FromK, time.Now()}) }))
	if err != nil {
		return err
	}
	st := run.stats
	finish := run.start.Add(time.Duration(run.wall * float64(time.Second)))
	root := tr.add(0, layerHarness, "run", run.start, finish)
	prev := run.start
	for _, le := range ends {
		name := "hybrid.incore"
		switch generated := le.fromK + 1; {
		case st.SpilledAtLevel == 0:
		case generated == st.SpilledAtLevel:
			name = "hybrid.spill_level"
		case generated > st.SpilledAtLevel:
			name = "hybrid.ooc"
		}
		tr.add(root, "hybrid", name, prev, le.at)
		prev = le.at
	}
	tr.add(root, "hybrid", "hybrid.finish", prev, finish)
	if err := finishTrace(e, tr, w.name(), base, r); err != nil {
		return err
	}
	byName := tr.selfByName()
	l["hybrid.incore_s"] = byName["hybrid.incore"]
	l["hybrid.spill_level_s"] = byName["hybrid.spill_level"]
	l["hybrid.ooc_s"] = byName["hybrid.ooc"] + byName["hybrid.finish"]
	l["hybrid.spilled_at"] = float64(st.SpilledAtLevel)
	l["hybrid.peak_over_budget"] = float64(st.PeakBytes) / float64(w.budget)
	if st.SpilledAtLevel == 0 {
		r.op(fmt.Errorf("hybrid run never spilled under a budget of %d bytes", w.budget))
	}

	// The two regimes it sits between, on the same graph in the same
	// process: all in core, and compressed shards from the start.
	wall, _ := base.value("wall_s")
	var incore, oocCmp []float64
	fromStart := &oocC75{in: w.in, dig: w.dig}
	for i := 0; i < 3; i++ {
		out, err := facadeRep(e, w.in, w.dig)
		if err != nil {
			return err
		}
		incore = append(incore, out.wall)
		if out, err = fromStart.rep(e, 1, repro.OOCCompress()); err != nil {
			return err
		}
		oocCmp = append(oocCmp, out.wall)
		if p.tiny {
			break
		}
	}
	l["hybrid.vs_incore"] = wall / median(incore)
	l["hybrid.vs_ooc_cmp"] = wall / median(oocCmp)

	// The compressed codec this workload leans on, timed by itself on the
	// largest level of a benchmark-driven raw run.
	dir, err := e.dir("codec")
	if err != nil {
		return err
	}
	w.dig.reset()
	oc, err := drivenOOC(e.ctx, nil, 0, w.in.g, dir, w.dig)
	if err != nil {
		return err
	}
	return codecPasses(e.ctx, w.in.g, dir, oc.peak, oc.peakK, l)
}
