package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

// ---- 6. cliqued-mix ----
//
// One cliqued process, two closed-loop clients (a client sends its next
// request only when the previous one completed).  Each client runs
// scripted sessions, every session on its own C60 variant so that no
// cache entry, fingerprint or registry slot is shared between sessions:
//
//	POST /graphs                         cold load
//	24 x GET .../cliques, uncached       lo 3..8 x ndjson|text x workers 1|2
//	     each followed by the identical request again  -> cache hit
//	2 x GET .../cliques, client disconnects after the first line
//	GET .../maxclique
//	DELETE /graphs/{fp}
//
// The workers=2 half of the uncached requests also passes an upper bound
// no clique reaches: workers is not part of the cache key, hi is, and the
// stream is the same, so that half measures the daemon's 2-worker path on
// otherwise identical, still uncached queries.
const (
	fullSessions   = 22
	loFirst        = 3
	loLast         = 8
	daemonBudget   = 4 << 30 // large enough that nothing should shed
	sessionSeconds = 0.6     // low estimate of one session (0.7 to 1.2 s measured), used to size a time-bounded run
)

type session struct {
	name string
	body []byte // the variant as an edge list, the POST body
	ref  *reference
}

type cliquedMix struct {
	d        *daemon
	sessions [maxWorkers][]*session
	health   service.Stats // /healthz after the last mix
	rssMB    float64
}

func (w *cliquedMix) name() string { return "cliqued-mix" }

func sessionLos() []int {
	los := make([]int, 0, loLast-loFirst+1)
	for lo := loFirst; lo <= loLast; lo++ {
		los = append(los, lo)
	}
	return los
}

// sessionsFor sizes the pool of session inputs for a plan.
func sessionsFor(p plan) int {
	switch {
	case p.tiny:
		return 1
	case p.seconds > 0:
		return int(p.seconds/sessionSeconds) + 2
	}
	return p.reps(fullSessions)
}

func newSession(ctx context.Context, name string, scale float64, seed int64) (*session, error) {
	g := buildC(scale, seed)
	var body bytes.Buffer
	if err := graph.WriteEdgeList(&body, g); err != nil {
		return nil, err
	}
	ref, err := computeReference(ctx, g, sessionLos())
	if err != nil {
		return nil, err
	}
	return &session{name: name, body: body.Bytes(), ref: ref}, nil
}

// mixScale is the scale of graph C the sessions run on.
func mixScale(p plan) float64 {
	if p.tiny {
		return 0.06
	}
	return c60Scale
}

func (w *cliquedMix) setup(e *env, seed int64, p plan) error {
	scale := mixScale(p)
	n := sessionsFor(p)
	for c := range w.sessions {
		w.sessions[c] = nil
		for i := 0; i < n; i++ {
			// A session-derived seed: every variant has its own fingerprint.
			s, err := newSession(e.ctx, fmt.Sprintf("c%d-s%d", c, i), scale, seed*100003+int64(c)*1009+int64(i))
			if err != nil {
				return err
			}
			w.sessions[c] = append(w.sessions[c], s)
		}
	}
	var err error
	w.d, err = startDaemon(e.ctx, e.cliqued, "-addr", "127.0.0.1:0",
		"-mem-budget", fmt.Sprint(int64(daemonBudget)), "-max-workers", fmt.Sprint(maxWorkers))
	return err
}

func (w *cliquedMix) close() error {
	if w.d == nil {
		return nil
	}
	rss, err := w.d.stop()
	w.rssMB, w.d = rss, nil
	return err
}

func (w *cliquedMix) measure(e *env, p plan, r *result) error {
	deadline := time.Time{}
	if p.seconds > 0 {
		deadline = time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	}
	// One discarded warm-up session per client, on inputs of its own.
	var wg sync.WaitGroup
	warm := make([]*result, maxWorkers)
	for c := range warm {
		s, err := newSession(e.ctx, fmt.Sprintf("warm%d", c), mixScale(p), int64(7919+c))
		if err != nil {
			return err
		}
		warm[c] = newResult()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			newClient(w.d.addr).session(e.ctx, s, warm[c])
		}(c)
	}
	wg.Wait()
	for _, wr := range warm {
		if wr.failed > 0 {
			return fmt.Errorf("warm-up session failed: %s", strings.Join(wr.failures, "; "))
		}
	}

	parts := make([]*result, maxWorkers)
	// A client that runs out of sessions ends the mix for both: the other
	// must not go on measuring an uncontended daemon.
	var done atomic.Bool
	start := time.Now()
	for c := range parts {
		parts[c] = newResult()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(w.d.addr)
			defer cl.http.CloseIdleConnections()
			for i, s := range w.sessions[c] {
				// A time-bounded run stops at the deadline, but never
				// before its floor of sessions per client.
				if e.ctx.Err() != nil || done.Load() || (!deadline.IsZero() && i >= p.floor && time.Now().After(deadline)) {
					break
				}
				cl.session(e.ctx, s, parts[c])
			}
			done.Store(true)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, part := range parts {
		r.attempted += part.attempted
		r.failed += part.failed
		r.failures = append(r.failures, part.failures...)
		r.shed += part.shed
		for name, xs := range part.samples {
			r.samples[name] = append(r.samples[name], xs...)
		}
	}
	r.add("req_per_s", float64(r.attempted-r.failed)/elapsed)

	// The daemon's own view, read once the mix is over: every graph was
	// deleted and every lease closed, so nothing may still be charged.
	h, err := newClient(w.d.addr).healthz(e.ctx)
	if err != nil {
		return err
	}
	w.health = h
	if h.Governor.Used != 0 || h.ResidualBytes != 0 || h.Graphs != 0 {
		r.op(fmt.Errorf("daemon still holds memory after the mix: used=%d residual=%d graphs=%d", h.Governor.Used, h.ResidualBytes, h.Graphs))
	}
	r.add("gov_peak_mb", float64(h.Governor.Peak)/1e6)
	r.add("service.cache_hits", float64(h.Cache.Hits))
	r.add("service.cache_misses", float64(h.Cache.Misses))
	r.add("service.queued", float64(h.Queued))
	r.add("service.shed", float64(r.shed))
	r.add("service.residual_bytes", float64(h.ResidualBytes))

	// ru_maxrss is known once the daemon has exited (the traced run that
	// may follow needs no daemon).
	if err := w.close(); err != nil {
		return err
	}
	r.add("rss_peak_mb", w.rssMB)
	return nil
}

// ---- the daemon process ----

type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	drain  sync.WaitGroup // the goroutine reading stdout
}

// startDaemon starts cliqued and waits for the line that carries the
// kernel-chosen listen address.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	d := &daemon{cmd: exec.CommandContext(ctx, bin, args...)}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cliqued: %w", err)
	}
	addrc := make(chan string, 1)
	d.drain.Add(1)
	go func() {
		defer d.drain.Done()
		defer close(addrc)
		sc := bufio.NewScanner(stdout)
		for announced := false; sc.Scan(); {
			if rest, ok := strings.CutPrefix(sc.Text(), "cliqued: listening on "); ok && !announced {
				announced = true
				addrc <- strings.TrimSpace(rest)
			}
		}
	}()
	select {
	case addr, ok := <-addrc:
		if ok {
			d.addr = "http://" + addr
			return d, nil
		}
		_, err := d.stop()
		return nil, errors.Join(fmt.Errorf("cliqued exited before listening: %s", d.stderr.String()), err)
	case <-time.After(20 * time.Second):
		_, err := d.stop()
		return nil, errors.Join(errors.New("cliqued did not report its address within 20s"), err)
	}
}

// stop asks the daemon to shut down gracefully, waits for it, and returns
// its peak resident set.
func (d *daemon) stop() (rssMB float64, err error) {
	// Read while it is alive: see peakRSSMB for why ru_maxrss will not do.
	rssMB, _ = peakRSSMB(d.cmd.Process.Pid)
	if serr := d.cmd.Process.Signal(syscall.SIGTERM); serr != nil && !errors.Is(serr, os.ErrProcessDone) {
		err = serr
	}
	d.drain.Wait() // stdout drained before Wait closes the pipe
	// cliqued installs its signal handler after it prints its address, so
	// a daemon stopped right after boot dies of the SIGTERM itself: that
	// is the stop that was asked for, not a failure.
	if werr := d.cmd.Wait(); werr != nil && !killedBy(d.cmd.ProcessState, syscall.SIGTERM) {
		err = errors.Join(err, fmt.Errorf("cliqued: %w: %s", werr, strings.TrimSpace(d.stderr.String())))
	}
	return rssMB, err
}

func killedBy(ps *os.ProcessState, sig syscall.Signal) bool {
	ws, ok := ps.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

// ---- the client ----

type client struct {
	base string
	http *http.Client
	dig  *digester
}

// newClient returns a client that holds at most one connection.
func newClient(base string) *client {
	return &client{
		base: base,
		dig:  newDigester(),
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
}

func (c *client) healthz(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// simple sends one request and returns the status and body.
func (c *client) simple(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// errShed marks a request the daemon refused for want of memory headroom.
var errShed = errors.New("shed")

// enumOut is one streamed enumerate as the client saw it.
type enumOut struct {
	total float64 // ms, request sent to body complete
	first float64 // ms, request sent to first clique line
	cache string  // X-Cliqued-Cache
}

// enumerate streams GET .../cliques into the client's digester.  With
// hangUp it disconnects after the first line.
func (c *client) enumerate(ctx context.Context, url, format string, hangUp bool) (enumOut, error) {
	c.dig.reset()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return enumOut{}, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return enumOut{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		err := fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusInsufficientStorage {
			err = fmt.Errorf("%w: %w", errShed, err)
		}
		return enumOut{}, err
	}
	out := enumOut{cache: resp.Header.Get("X-Cliqued-Cache")}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			line = bytes.TrimRight(line, "\n")
			if format == "text" {
				c.dig.textLine(line)
			} else if !c.dig.ndjsonLine(line) && !bytes.HasPrefix(line, []byte(`{"done":true`)) {
				return out, fmt.Errorf("GET %s: unexpected line %q", url, line)
			}
			if hangUp && c.dig.count > 0 {
				break
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, fmt.Errorf("GET %s: %w", url, err)
		}
	}
	out.total = float64(time.Since(start)) / 1e6
	if !c.dig.first.IsZero() {
		out.first = float64(c.dig.first.Sub(start)) / 1e6
	}
	return out, nil
}

// session runs one scripted session, recording every request as an
// operation and every latency as a sample.
func (c *client) session(ctx context.Context, s *session, r *result) {
	start := time.Now()
	status, body, err := c.simple(ctx, http.MethodPost, c.base+"/graphs?name="+s.name, s.body)
	var info service.GraphInfo
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("POST /graphs: status %d: %s", status, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &info)
	}
	r.op(err)
	if err != nil {
		return // nothing to query
	}
	r.add("load_p50_ms", float64(time.Since(start))/1e6)
	cliques := c.base + "/graphs/" + info.Fingerprint + "/cliques"

	for lo := loFirst; lo <= loLast; lo++ {
		for _, format := range []string{"ndjson", "text"} {
			for workers := 1; workers <= maxWorkers; workers++ {
				url := fmt.Sprintf("%s?lo=%d&format=%s&workers=%d", cliques, lo, format, workers)
				if workers > 1 {
					url += "&hi=1000"
				}
				miss, err := c.enumerate(ctx, url, format, false)
				if err == nil {
					err = c.checkStream(s, lo, miss.cache, "miss")
				}
				r.op(err)
				if err == nil {
					r.add("enum_p50_ms", miss.total)
					r.add("ttfc_p50_ms", miss.first)
					if workers == 1 {
						r.add("wall_s", miss.total/1e3)
						r.add("ttfc_ms", miss.first)
					} else {
						r.add("wall_2w_s", miss.total/1e3)
					}
				}
				hit, err := c.enumerate(ctx, url, format, false)
				if err == nil {
					err = c.checkStream(s, lo, hit.cache, "hit")
				}
				r.op(err)
				if err == nil {
					r.add("hit_p50_ms", hit.total)
				}
			}
		}
	}

	// Two clients that walk away after the first clique: the daemon must
	// cancel the run and give the memory back (checked through /healthz).
	// (hi gives them cache keys of their own, so they are not replays.)
	for lo := loFirst; lo <= loFirst+1; lo++ {
		_, err := c.enumerate(ctx, fmt.Sprintf("%s?lo=%d&hi=2000", cliques, lo), "ndjson", true)
		if err == nil && c.dig.count != 1 {
			err = fmt.Errorf("disconnecting request saw %d clique lines, want 1", c.dig.count)
		}
		r.op(err)
	}

	status, body, err = c.simple(ctx, http.MethodGet, c.base+"/graphs/"+info.Fingerprint+"/maxclique", nil)
	var mc struct {
		Size int `json:"size"`
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET maxclique: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &mc)
	}
	if err == nil && mc.Size != s.ref.omega {
		err = fmt.Errorf("maxclique reports %d, the reference %d", mc.Size, s.ref.omega)
	}
	r.op(err)

	// A graph with a query still winding down answers 409; a client waits
	// and asks again, as the API intends.
	for try := 0; ; try++ {
		status, body, err = c.simple(ctx, http.MethodDelete, c.base+"/graphs/"+info.Fingerprint, nil)
		if err != nil || status != http.StatusConflict || try == 200 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("DELETE graph: status %d: %s", status, bytes.TrimSpace(body))
	}
	r.op(err)
	r.add("session_s", time.Since(start).Seconds())
}

// checkStream compares the stream just read with the session's reference
// and the cache header with what the script expects.
func (c *client) checkStream(s *session, lo int, gotCache, wantCache string) error {
	if gotCache != wantCache {
		return fmt.Errorf("lo=%d: X-Cliqued-Cache is %q, the script expects a %s", lo, gotCache, wantCache)
	}
	if !s.ref.matches(lo, c.dig) {
		return fmt.Errorf("lo=%d (%s): %d cliques do not match the reference (%d)", lo, wantCache, c.dig.count, s.ref.byLo[lo].count)
	}
	return nil
}
