package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro"
	"repro/internal/membudget"
	"repro/internal/service"
)

// trace drives the service layer in process — direct calls and
// httptest.ResponseRecorder, no network — with a span around each:
// registry add, handler on a miss, handler on a hit, and the bare facade
// run the miss contains.  What the socket, the HTTP stack and the second
// client add is the difference to the untraced latencies.
func (w *cliquedMix) trace(e *env, p plan, base, r *result) error {
	l := r.layer
	s := w.sessions[0][0]
	g, err := repro.ReadGraph(bytes.NewReader(s.body), repro.FormatAuto, repro.Auto)
	if err != nil {
		return err
	}
	srv := service.New(service.Config{Budget: daemonBudget, MaxWorkers: maxWorkers})
	dig := newDigester()

	tr := newTracer(traceID(w.name()))
	root := tr.start(0, layerHarness, "run")

	id := tr.start(root, "service", "service.registry_add")
	entry, _, err := srv.Registry().Add(s.name, g)
	l["service.registry_add_s"] = tr.end(id)
	if err != nil {
		return err
	}

	var missMS, hitUS, encodeUS []float64
	for lo := loFirst; lo <= loLast; lo++ {
		for _, format := range []string{"ndjson", "text"} {
			url := fmt.Sprintf("/graphs/%s/cliques?lo=%d&format=%s", entry.Fingerprint, lo, format)
			for _, want := range []string{"miss", "hit"} {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, url, nil).WithContext(e.ctx)
				id := tr.start(root, "service", "service.handler_"+want)
				srv.ServeHTTP(rec, req)
				d := tr.end(id)
				if rec.Code != http.StatusOK || rec.Header().Get("X-Cliqued-Cache") != want {
					return fmt.Errorf("in-process %s: status %d, cache %q, want a %s", url, rec.Code, rec.Header().Get("X-Cliqued-Cache"), want)
				}
				if err := checkBody(dig, rec.Body.Bytes(), format, s.ref, lo); err != nil {
					r.op(fmt.Errorf("in-process %s (%s): %w", url, want, err))
				}
				if want == "miss" {
					missMS = append(missMS, d*1e3)
				} else {
					hitUS = append(hitUS, d*1e6)
				}
			}
			// The enumeration inside that miss, without the service around
			// it: what is left of the miss is admission, encoding, the
			// response writer and the cache tee.
			id := tr.start(root, "core", "facade.run")
			n, err := repro.NewEnumerator(repro.WithBounds(lo, 0)).Run(e.ctx, g, nil)
			runS := tr.end(id)
			if err != nil {
				return err
			}
			if n > 0 {
				encodeUS = append(encodeUS, (missMS[len(missMS)-1]/1e3-runS)*1e6/float64(n))
			}
		}
	}
	tr.end(root)
	if err := finishTrace(e, tr, w.name(), base, r); err != nil {
		return err
	}
	l["service.handler_miss_ms"] = median(missMS)
	l["service.handler_hit_us"] = median(hitUS)
	l["service.encode_us_per_clique"] = median(encodeUS)
	if enum, ok := base.value("enum_p50_ms"); ok && enum > 0 {
		l["service.http_over_ms"] = enum - l["service.handler_miss_ms"]
		// Here the traced run is the handler without the network, so the
		// comparison is per request, not per run.
		l["trace.overhead_frac"] = l["service.handler_miss_ms"]/enum - 1
	}
	if st := srv.Snapshot(); st.ResidualBytes != 0 {
		r.op(fmt.Errorf("in-process server holds %d residual bytes", st.ResidualBytes))
	}

	bodyLen := 0
	if body, _, ok := cacheBody(srv, entry.Fingerprint); ok {
		bodyLen = len(body)
	}
	if err := admissionLayer(e.ctx, l); err != nil {
		return err
	}
	cacheLayer(l, bodyLen)
	membudgetLayer(l)
	return nil
}

// checkBody hashes a recorded response body against the reference.
func checkBody(dig *digester, body []byte, format string, ref *reference, lo int) error {
	dig.reset()
	for _, line := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		if format == "text" {
			dig.textLine(line)
		} else {
			dig.ndjsonLine(line)
		}
	}
	if !ref.matches(lo, dig) {
		return fmt.Errorf("%d cliques do not match the reference (%d)", dig.count, ref.byLo[lo].count)
	}
	return nil
}

// cacheBody fetches the lo=3 NDJSON replay from the server, to size the
// cache measurements like a workload body.
func cacheBody(srv *service.Server, fp string) ([]byte, string, bool) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/graphs/%s/cliques?lo=%d", fp, loFirst), nil))
	return rec.Body.Bytes(), rec.Header().Get("Content-Type"), rec.Code == http.StatusOK
}

// admissionLayer times the admission controller alone: an uncontended
// Acquire+Close, and the wake-up latency of a waiter — a second Acquire
// blocked on a budget that fits one lease, released by the Close of the
// first.
func admissionLayer(ctx context.Context, l map[string]float64) error {
	gov := membudget.New(1 << 40)
	adm := service.NewAdmission(gov, 16, time.Second)
	var admErr error
	l["service.admission_ns"] = perOp(func() {
		lease, err := adm.Acquire(ctx, 1<<20)
		if err != nil {
			admErr = err
			return
		}
		sink += int(lease.Close())
	})
	if admErr != nil {
		return admErr
	}

	const lease = 1 << 20
	one := service.NewAdmission(membudget.New(lease), 16, 5*time.Second)
	var wakes []float64
	for i := 0; i < 200; i++ {
		first, err := one.Acquire(ctx, lease)
		if err != nil {
			return err
		}
		type woke struct {
			at  time.Time
			err error
		}
		got := make(chan woke, 1)
		go func() {
			second, err := one.Acquire(ctx, lease)
			w := woke{time.Now(), err}
			if err == nil {
				second.Close()
			}
			got <- w
		}()
		// Let the waiter queue up before the release.
		for one.Queued() == 0 {
			time.Sleep(20 * time.Microsecond)
		}
		released := time.Now()
		first.Close()
		w := <-got
		if w.err != nil {
			return w.err
		}
		wakes = append(wakes, float64(w.at.Sub(released))/1e3)
	}
	l["service.admission_wake_us"] = median(wakes)
	return nil
}

// cacheLayer times the result cache alone on a body of the workload's size.
func cacheLayer(l map[string]float64, bodyLen int) {
	if bodyLen == 0 {
		bodyLen = 4096
	}
	body := bytes.Repeat([]byte{'x'}, bodyLen)
	cache := service.NewCache(64 << 20)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x|lo=%d|ndjson", i, loFirst)
		cache.Put(keys[i], "application/x-ndjson", body)
	}
	i := 0
	l["service.cache_get_ns"] = perOp(func() {
		b, _, _ := cache.Get(keys[i%len(keys)])
		sink += len(b)
		i++
	})
	l["service.cache_put_ns"] = perOp(func() {
		cache.Put(keys[i%len(keys)], "application/x-ndjson", body)
		i++
	})
}
