package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/service"
)

// testGraph builds a deterministic test graph: G(n, p) with two
// overlapping cliques planted at its first vertices.
func testGraph(seed int64, n int, p float64) *graph.Graph {
	g := graph.RandomGNP(rand.New(rand.NewSource(seed)), n, p)
	repro.PlantClique(g, []int{0, 1, 2, 3, 4, 5})
	repro.PlantClique(g, []int{3, 4, 5, 6, 7})
	return g
}

// testGraphBytes returns testGraph's edge-list serialization — the bytes
// a client would upload.
func testGraphBytes(t *testing.T, seed int64, n int, p float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := repro.WriteEdgeList(&buf, testGraph(seed, n, p)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newServer starts an httptest server over a fresh service.
func newServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// loadGraph uploads body and returns the fingerprint the service
// assigned.
func loadGraph(t *testing.T, ts *httptest.Server, body []byte) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/graphs", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("load graph: status %d: %s", resp.StatusCode, b)
	}
	var info struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info.Fingerprint
}

// get fetches a URL and returns status, the X-Cliqued-Cache header, and
// the whole body.
func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cliqued-Cache"), body
}

// expectedText enumerates the same uploaded bytes locally and renders
// them exactly as cmd/cliquer prints cliques — the parity oracle.
func expectedText(t *testing.T, upload []byte, lo, hi int, opts ...repro.Option) string {
	t.Helper()
	g, err := repro.ReadGraph(bytes.NewReader(upload), repro.FormatAuto, repro.Auto)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for c, err := range repro.NewEnumerator(append(opts, repro.WithBounds(lo, hi))...).Cliques(context.Background(), g) {
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(c))
		for i, v := range c {
			names[i] = g.Name(v)
		}
		sb.WriteString(strings.Join(names, " "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestStreamParityAcrossBackendsAndCache is the service's acceptance
// parity test: the text stream equals the cliquer-rendered enumeration
// byte for byte — from the sequential backend, from the parallel
// backend (on a cache-disabled server, so it really runs), and from a
// cached replay, which must also announce itself via X-Cliqued-Cache.
func TestStreamParityAcrossBackendsAndCache(t *testing.T) {
	upload := testGraphBytes(t, 42, 60, 0.15)
	want := expectedText(t, upload, 3, 0)
	if strings.Count(want, "\n") < 5 {
		t.Fatalf("test graph yields only %d cliques; too weak", strings.Count(want, "\n"))
	}

	_, ts := newServer(t, service.Config{})
	fp := loadGraph(t, ts, upload)

	status, cache, body := get(t, ts.URL+"/graphs/"+fp+"/cliques?format=text&lo=3")
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("first query: status %d cache %q", status, cache)
	}
	if string(body) != want {
		t.Fatalf("sequential stream diverges from cliquer output:\ngot %d bytes\nwant %d bytes", len(body), len(want))
	}

	status, cache, body = get(t, ts.URL+"/graphs/"+fp+"/cliques?format=text&lo=3")
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("repeat query: status %d cache %q, want a cache hit", status, cache)
	}
	if string(body) != want {
		t.Fatal("cached replay diverges from the original stream")
	}

	// A different execution policy maps to the same cache key on
	// purpose — the backends are parity-pinned — so exercise the
	// parallel backends and every bitmap policy spelling on a
	// cache-disabled server.
	_, ts2 := newServer(t, service.Config{CacheBytes: -1})
	fp2 := loadGraph(t, ts2, upload)
	for _, q := range []string{
		"workers=3&strategy=affinity",
		"workers=2&strategy=contiguous",
		"mode=store",
	} {
		status, cache, body = get(t, ts2.URL+"/graphs/"+fp2+"/cliques?format=text&lo=3&"+q)
		if status != http.StatusOK || cache != "miss" {
			t.Fatalf("%s: status %d cache %q", q, status, cache)
		}
		if string(body) != want {
			t.Fatalf("%s: stream diverges from cliquer output", q)
		}
	}
}

// TestNDJSONStream checks the default wire format: one record per
// clique and a terminal done-summary whose count matches.
func TestNDJSONStream(t *testing.T) {
	upload := testGraphBytes(t, 7, 50, 0.15)
	_, ts := newServer(t, service.Config{})
	fp := loadGraph(t, ts, upload)

	status, cache, body := get(t, ts.URL+"/graphs/"+fp+"/cliques?lo=3")
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d cache %q", status, cache)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines", len(lines))
	}
	for _, ln := range lines[:len(lines)-1] {
		var rec struct {
			Size     int   `json:"size"`
			Vertices []int `json:"vertices"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad NDJSON record %q: %v", ln, err)
		}
		if rec.Size != len(rec.Vertices) || rec.Size < 3 {
			t.Fatalf("record %q: size/vertices mismatch", ln)
		}
	}
	var sum struct {
		Done    bool   `json:"done"`
		Count   int64  `json:"count"`
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("bad summary %q: %v", lines[len(lines)-1], err)
	}
	if !sum.Done || sum.Count != int64(len(lines)-1) || sum.Backend == "" {
		t.Fatalf("summary %+v does not match the %d streamed records", sum, len(lines)-1)
	}

	// Cached NDJSON replay is byte-identical, summary included.
	_, cache2, body2 := get(t, ts.URL+"/graphs/"+fp+"/cliques?lo=3")
	if cache2 != "hit" || !bytes.Equal(body, body2) {
		t.Fatalf("cached NDJSON replay differs (cache=%q)", cache2)
	}
}

// TestClientDisconnectMidStream is the multi-tenancy cleanup test: a
// client that hangs up mid-stream must cancel the run and return its
// whole reservation, leaving the governor at the pinned-graphs
// baseline with no residual charges.
func TestClientDisconnectMidStream(t *testing.T) {
	upload := testGraphBytes(t, 9, 120, 0.25) // big enough to stream for a while
	srv, ts := newServer(t, service.Config{Budget: 1 << 30})
	fp := loadGraph(t, ts, upload)
	baseline := srv.Governor().Used() // the pinned graph

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/graphs/"+fp+"/cliques?format=text&lo=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one chunk of the live stream, then hang up.
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading the stream head: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The handler notices on its next write, cancels the run, and
	// closes the lease; poll until the governor is back to baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := srv.Snapshot()
		if snap.Active == 0 && snap.Governor.Used == baseline &&
			snap.Governor.Reserved == baseline {
			if snap.ResidualBytes != 0 {
				t.Fatalf("disconnect left %d residual bytes", snap.ResidualBytes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("governor never returned to baseline: %+v (baseline %d)",
				snap.Governor, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The server is still healthy and the graph still serves queries.
	status, _, _ := get(t, ts.URL+"/graphs/"+fp+"/cliques?format=text&lo=4")
	if status != http.StatusOK {
		t.Fatalf("query after disconnect: status %d", status)
	}
}

// TestAdmissionShedding drives the service's shedding paths over HTTP:
// a reservation that can never fit is refused outright (507), and a
// full budget with no headroom appearing within QueueWait sheds with
// 503 + Retry-After.
func TestAdmissionShedding(t *testing.T) {
	upload := testGraphBytes(t, 5, 40, 0.15)
	srv, ts := newServer(t, service.Config{
		Budget:    8 << 20,
		QueueWait: 50 * time.Millisecond,
	})
	fp := loadGraph(t, ts, upload)

	// mem= beyond the whole budget: never fits, immediate 507.
	status, _, body := get(t, ts.URL+"/graphs/"+fp+"/cliques?mem=16777217&format=text")
	if status != http.StatusInsufficientStorage {
		t.Fatalf("oversized mem=: status %d body %s", status, body)
	}

	// Occupy the remaining budget so a well-sized query queues, times
	// out, and is shed with the retry hint.
	res, err := srv.Governor().Reserve(srv.Governor().Budget() - srv.Governor().Reserved())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/graphs/" + fp + "/cliques?mem=1048576&format=text")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full budget: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Headroom returns; the same query is admitted.
	res.Close()
	status, _, _ = get(t, ts.URL+"/graphs/"+fp+"/cliques?mem=1048576&format=text")
	if status != http.StatusOK {
		t.Fatalf("after release: status %d", status)
	}
}

// TestGraphLifecycle covers load (201), idempotent reload (200), list,
// info, eviction, and the 404 after.
func TestGraphLifecycle(t *testing.T) {
	upload := testGraphBytes(t, 3, 30, 0.2)
	srv, ts := newServer(t, service.Config{})
	fp := loadGraph(t, ts, upload)
	baseline := srv.Governor().Used()
	if baseline == 0 {
		t.Fatal("loaded graph pinned no bytes")
	}

	// Reload: same fingerprint, 200, no extra pin.
	resp, err := http.Post(ts.URL+"/graphs?name=again", "text/plain", bytes.NewReader(upload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d, want 200", resp.StatusCode)
	}
	if srv.Governor().Used() != baseline {
		t.Fatal("idempotent reload pinned additional bytes")
	}

	status, _, body := get(t, ts.URL+"/graphs")
	if status != http.StatusOK || !strings.Contains(string(body), fp) {
		t.Fatalf("list: status %d body %s", status, body)
	}
	status, _, _ = get(t, ts.URL+"/graphs/"+fp)
	if status != http.StatusOK {
		t.Fatalf("info: status %d", status)
	}

	// Warm the cache, then evict: pinned bytes return, cached streams
	// for the graph are invalidated, and queries 404.
	if status, _, _ := get(t, ts.URL+"/graphs/"+fp+"/cliques?lo=3"); status != http.StatusOK {
		t.Fatal("warmup query failed")
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/graphs/"+fp, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: status %d", resp.StatusCode)
	}
	if used := srv.Governor().Used(); used != 0 {
		t.Fatalf("evicted graph left %d bytes pinned", used)
	}
	if srv.Snapshot().Cache.Entries != 0 {
		t.Fatal("eviction left the graph's cached streams behind")
	}
	status, _, _ = get(t, ts.URL+"/graphs/"+fp+"/cliques?lo=3")
	if status != http.StatusNotFound {
		t.Fatalf("query after eviction: status %d, want 404", status)
	}
}

// TestGraphTooLargeForBudget: a graph whose adjacency cannot fit the
// server budget is refused at load with 507.
func TestGraphTooLargeForBudget(t *testing.T) {
	upload := testGraphBytes(t, 8, 100, 0.3)
	_, ts := newServer(t, service.Config{Budget: 1024})
	resp, err := http.Post(ts.URL+"/graphs", "text/plain", bytes.NewReader(upload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("status %d, want 507", resp.StatusCode)
	}
}

// TestMaxCliqueEndpoint checks the exact search and its cache entry.
func TestMaxCliqueEndpoint(t *testing.T) {
	upload := testGraphBytes(t, 42, 60, 0.15)
	g, err := repro.ReadGraph(bytes.NewReader(upload), repro.FormatAuto, repro.Auto)
	if err != nil {
		t.Fatal(err)
	}
	want := len(repro.MaxClique(g))

	_, ts := newServer(t, service.Config{})
	fp := loadGraph(t, ts, upload)
	status, cache, body := get(t, ts.URL+"/graphs/"+fp+"/maxclique")
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d cache %q", status, cache)
	}
	var out struct {
		Size     int   `json:"size"`
		Vertices []int `json:"vertices"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Size != want || len(out.Vertices) != want {
		t.Fatalf("maxclique size %d, want %d", out.Size, want)
	}
	if _, cache, _ := get(t, ts.URL+"/graphs/"+fp+"/maxclique"); cache != "hit" {
		t.Fatal("repeat maxclique missed the cache")
	}
}

// TestParacliquesEndpoint compares the endpoint against the facade.
func TestParacliquesEndpoint(t *testing.T) {
	upload := testGraphBytes(t, 42, 60, 0.15)
	g, err := repro.ReadGraph(bytes.NewReader(upload), repro.FormatAuto, repro.Auto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.NewEnumerator(repro.WithBounds(4, 0)).Paracliques(context.Background(), g, 0.9)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newServer(t, service.Config{})
	fp := loadGraph(t, ts, upload)
	status, _, body := get(t, ts.URL+"/graphs/"+fp+"/paracliques?lo=4&glom=0.9")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out struct {
		Count       int `json:"count"`
		Paracliques []struct {
			Vertices []int   `json:"vertices"`
			CoreSize int     `json:"core_size"`
			Density  float64 `json:"density"`
		} `json:"paracliques"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != len(want) {
		t.Fatalf("endpoint found %d paracliques, facade %d", out.Count, len(want))
	}
	for i, p := range out.Paracliques {
		if p.CoreSize != want[i].CoreSize || len(p.Vertices) != len(want[i].Vertices) {
			t.Fatalf("paraclique %d diverges from the facade", i)
		}
	}
}

// TestPathwaysEndpoint runs a tiny linear pathway through the EFM
// endpoint.
func TestPathwaysEndpoint(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	reqBody := `{
		"metabolites": ["A", "B"],
		"reactions": [
			{"name": "in",  "reversible": false, "stoich": {"0": 1}},
			{"name": "mid", "reversible": false, "stoich": {"0": -1, "1": 1}},
			{"name": "out", "reversible": false, "stoich": {"1": -1}}
		]
	}`
	resp, err := http.Post(ts.URL+"/pathways", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Count int `json:"count"`
		Modes []struct {
			Flux    []string `json:"flux"`
			Support []int    `json:"support"`
		} `json:"modes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 1 || len(out.Modes) != 1 || len(out.Modes[0].Support) != 3 {
		t.Fatalf("linear chain EFMs = %+v, want one mode through all three reactions", out)
	}
}

// TestBadRequests sweeps the 4xx surface.
func TestBadRequests(t *testing.T) {
	upload := testGraphBytes(t, 2, 30, 0.2)
	_, ts := newServer(t, service.Config{})
	fp := loadGraph(t, ts, upload)

	for _, c := range []struct {
		url  string
		want int
	}{
		{"/graphs/deadbeef00000000/cliques", http.StatusNotFound},
		{"/graphs/deadbeef00000000", http.StatusNotFound},
		{"/graphs/" + fp + "/cliques?lo=x", http.StatusBadRequest},
		{"/graphs/" + fp + "/cliques?strategy=quantum", http.StatusBadRequest},
		{"/graphs/" + fp + "/cliques?format=xml", http.StatusBadRequest},
		{"/graphs/" + fp + "/cliques?mode=turbo", http.StatusBadRequest},
		{"/graphs/" + fp + "/cliques?mode=wah", http.StatusBadRequest},    // the deleted compressed-bitmap mode
		{"/graphs/" + fp + "/cliques?mode=lowmem", http.StatusBadRequest}, // no alias of the default is left
		{"/graphs/" + fp + "/cliques?mem=-3", http.StatusBadRequest},
		{"/graphs/" + fp + "/cliques?workers=-2", http.StatusBadRequest},
		{"/graphs/" + fp + "/paracliques?glom=1.5", http.StatusBadRequest},
		{"/graphs/" + fp + "/paracliques?mem=-3", http.StatusBadRequest},
		// Parameters paracliques never reads refuse nothing there.
		{"/graphs/" + fp + "/paracliques?format=xml&strategy=quantum&mode=turbo&workers=-2", http.StatusOK},
	} {
		status, _, body := get(t, ts.URL+c.url)
		if status != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.url, status, c.want, body)
		}
	}

	resp, err := http.Post(ts.URL+"/graphs", "text/plain", strings.NewReader("not a graph\n!!!\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: status %d, want 400", resp.StatusCode)
	}
}

// TestWorkersClamped pins the ungoverned-allocation fix: the parallel
// pool sizes per-worker scratch straight from workers= before the
// governor sees a byte, so an absurd count must be clamped to the
// configured maximum, not sized into allocations.  The request still
// succeeds — with the clamped pool — and streams the same bytes as a
// sequential run.
func TestWorkersClamped(t *testing.T) {
	upload := testGraphBytes(t, 11, 40, 0.2)
	want := expectedText(t, upload, 3, 0)
	_, ts := newServer(t, service.Config{CacheBytes: -1, MaxWorkers: 2})
	fp := loadGraph(t, ts, upload)
	status, _, body := get(t, ts.URL+"/graphs/"+fp+"/cliques?format=text&lo=3&workers=2000000000")
	if status != http.StatusOK {
		t.Fatalf("huge workers=: status %d body %s", status, body)
	}
	if string(body) != want {
		t.Fatal("clamped parallel stream diverges from cliquer output")
	}
}

// TestHealthz sanity-checks the snapshot wiring.
func TestHealthz(t *testing.T) {
	upload := testGraphBytes(t, 2, 30, 0.2)
	srv, ts := newServer(t, service.Config{Budget: 1 << 28})
	fp := loadGraph(t, ts, upload)
	if status, _, _ := get(t, ts.URL+"/graphs/"+fp+"/cliques?lo=3"); status != http.StatusOK {
		t.Fatal("query failed")
	}
	status, _, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	var snap service.Stats
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Status != "ok" || snap.Graphs != 1 || snap.Queries < 1 {
		t.Fatalf("healthz snapshot %+v", snap)
	}
	if snap.Governor.Budget != 1<<28 || snap.Governor.Used != srv.Governor().Used() {
		t.Fatalf("healthz governor %+v", snap.Governor)
	}
	if fmt.Sprint(snap.ResidualBytes) != "0" {
		t.Fatalf("healthz reports %d residual bytes", snap.ResidualBytes)
	}
}
