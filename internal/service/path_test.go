package service_test

import (
	"context"
	"errors"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/testgraph"
)

// reply is what a client sees of one query: the status, the four headers
// the request path owns, and the body with its wall-clock figure masked.
type reply struct {
	status                                      int
	cache, reservation, retryAfter, contentType string
	body                                        string
}

var elapsedMS = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// fetch issues one GET and reads the whole reply; partial reads n > 0
// bytes of the live body, then hangs up.
func fetch(t *testing.T, url string, partial int) reply {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body []byte
	if partial > 0 {
		body = make([]byte, partial)
		if _, err = io.ReadFull(resp.Body, body); err != nil {
			t.Fatalf("reading the stream head: %v", err)
		}
	} else if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	h := resp.Header
	return reply{resp.StatusCode, h.Get("X-Cliqued-Cache"), h.Get("X-Cliqued-Reservation"),
		h.Get("Retry-After"), h.Get("Content-Type"), elapsedMS.ReplaceAllString(string(body), `"elapsed_ms":0`)}
}

// hangUp issues the GET and hangs up once the query is admitted and
// running: a buffered reply never reaches the client.
func hangUp(t *testing.T, srv *service.Server, url string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	for srv.Snapshot().Active == 0 {
		select {
		case err := <-done:
			t.Fatalf("the query ended before it could be hung up on (error %v)", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("hung-up request returned %v, want context.Canceled", err)
	}
}

// threes is the head of a text stream holding its 3-cliques: what a run
// delivers before a budget too small for level 4 trips.
func threes(text string) string {
	end := 0
	for _, ln := range strings.SplitAfter(text, "\n") {
		if strings.Count(ln, " ") != 2 {
			break
		}
		end += len(ln)
	}
	return text[:end]
}

// TestRequestPath drives the one request path (Server.serve) through
// every outcome from each of the three endpoints that share it and pins
// what the client sees — status, headers and body bytes as recorded from
// the three separate handlers this path replaced — and that every
// outcome leaves the server as it found it: no active or queued query, no
// graph reference, no residual bytes, the governor back at the
// pinned-graph baseline, no handler goroutine.
func TestRequestPath(t *testing.T) {
	small := testGraphBytes(t, 42, 60, 0.15)
	big := testGraphBytes(t, 9, 120, 0.25)   // streams long enough to hang up on
	dense := testGraphBytes(t, 1, 150, 0.9)  // an exact search that outlives any test
	denser := testGraphBytes(t, 1, 120, 0.8) // ~0.1 s a seed search
	smallText, bigText := expectedText(t, small, 3, 0), expectedText(t, big, 3, 0)
	smallOnes := expectedText(t, small, 1, 0, repro.WithReportSmall())
	const (
		jsonCT   = "application/json"
		textCT   = "text/plain; charset=utf-8"
		ndjsonCT = "application/x-ndjson"

		// peak_bytes is the 56-byte seed level of 5-cliques beside the
		// join's scratch, the local universe of its largest p0 group
		// (local.go): the rank table, 4 x 60 = 240, N(p0) of degree 12,
		// its rows' slots and a sub-list's tails as local ids,
		// 3 x 4 x 12 = 144, seven one-word rows built, 56, CN(prefix+v) 8
		// and a one-word memo row for each of the 4 prefix vertices, 32 —
		// 480, so 536.  It was 96 while the join ran on
		// 60-bit global rows (two scratch bitmaps and three memo rows, 40).
		fives       = "{\"size\":5,\"vertices\":[3,4,5,6,7]}\n{\"size\":6,\"vertices\":[0,1,2,3,4,5]}\n{\"size\":6,\"vertices\":[1,2,3,4,5,7]}\n{\"done\":true,\"count\":3,\"max_size\":6,\"backend\":\"sequential\",\"peak_bytes\":536,\"elapsed_ms\":0}\n"
		maxClique   = "{\"elapsed_ms\":0,\"size\":6,\"vertices\":[0,1,2,3,4,5]}\n"
		paracliques = "{\"count\":3,\"paracliques\":[{\"vertices\":[0,1,2,3,4,5],\"core_size\":6,\"density\":1},{\"vertices\":[16,22,24,31],\"core_size\":4,\"density\":1},{\"vertices\":[30,33,45,52],\"core_size\":4,\"density\":1}]}\n"
		timedOut    = "{\"error\":\"service: timed out waiting for memory headroom\"}\n"
		neverFits   = "{\"error\":\"membudget: reservation exceeds remaining headroom: 67109344 bytes exceed the whole budget 1048576\"}\n"
		noGraph     = "{\"error\":\"no graph with fingerprint deadbeef00000000\"}\n"
		badBounds   = "{\"error\":\"enumcfg: Lo -1 \\u003c 1\"}\n"
	)
	tight := service.Config{Budget: 8 << 20, QueueWait: 50 * time.Millisecond}
	tiny := service.Config{Budget: 1 << 20}

	// occupy reserves what is left of the server's budget, so the next
	// query queues, times out and is shed.
	occupy := func(t *testing.T, srv *service.Server) func() {
		res, err := srv.Governor().Reserve(srv.Governor().Budget() - srv.Governor().Reserved())
		if err != nil {
			t.Fatal(err)
		}
		return func() { res.Close() }
	}

	for _, c := range []struct {
		name    string
		cfg     service.Config
		upload  []byte
		path    string // below /graphs/<fp>/ ("!" + path: below an unknown fingerprint)
		warm    bool   // issue the query once before the recorded one
		prepare func(*testing.T, *service.Server) (undo func())
		partial int           // read this many bytes of the live stream, then hang up
		hangUp  bool          // hang up while the query runs, before any byte
		within  time.Duration // after the hang-up, the lease and the governor are back this soon
		want    reply         // body "" with bodyFNV set: the body's FNV-64a
		bodyFNV uint64        // for a body too long to spell
	}{
		{name: "cliques/miss", upload: small, path: "cliques?format=text",
			want: reply{200, "miss", "67109344", "", textCT, smallText}},
		{name: "cliques/hit", upload: small, path: "cliques?format=text", warm: true,
			want: reply{200, "hit", "", "", textCT, smallText}},
		{name: "cliques/ndjson-miss", upload: small, path: "cliques?lo=5",
			want: reply{200, "miss", "67109344", "", ndjsonCT, fives}},
		{name: "cliques/ndjson-hit", upload: small, path: "cliques?lo=5", warm: true,
			want: reply{200, "hit", "", "", ndjsonCT, fives}},
		{name: "cliques/shed", cfg: tight, upload: small, path: "cliques?format=text&mem=1048576", prepare: occupy,
			want: reply{503, "", "", "2", jsonCT, timedOut}},
		{name: "cliques/never-fits", cfg: tiny, upload: small, path: "cliques?format=text",
			want: reply{507, "", "", "", jsonCT, neverFits}},
		{name: "cliques/unknown-graph", upload: small, path: "!cliques",
			want: reply{404, "", "", "", jsonCT, noGraph}},
		{name: "cliques/disconnect", upload: big, path: "cliques?format=text", partial: 256,
			want: reply{200, "miss", "67110784", "", textCT, bigText[:256]}},
		// mem=1 is raised to the graph's bytes + 1: level 3 -> 4 trips it,
		// after the maximal 3-cliques are out.  The in-band error reports
		// a peak of the 20 408-byte seed level and the join's scratch at
		// adoption, the rank table 4 x 120: 20 888 (20 440 beside the two
		// 120-bit scratch bitmaps of the global join).
		{name: "cliques/budget-trip", upload: big, path: "cliques?format=text&mem=1",
			want: reply{200, "miss", "1921", "", textCT, threes(bigText)}},
		{name: "cliques/ndjson-budget-trip", upload: big, path: "cliques?mem=1", // ends with the in-band {"error":...} record
			want: reply{200, "miss", "1921", "", ndjsonCT, ""}, bodyFNV: 0xd6ca81fcdd64ad1d},
		// Refused while parsed: no registry reference, no reservation.
		{name: "cliques/bad-bounds", upload: small, path: "cliques?lo=-1",
			want: reply{400, "", "", "", jsonCT, badBounds}},
		{name: "cliques/bad-bounds-inverted", upload: small, path: "cliques?lo=5&hi=3",
			want: reply{400, "", "", "", jsonCT, "{\"error\":\"enumcfg: Hi 3 \\u003c Lo 5\"}\n"}},
		// Seeded from the edges, the run holds its whole 2-clique level
		// against a budget of the graph's bytes + 1 and trips before its
		// first 3-clique is out: the status still says so.  The peak is
		// the 1 496-byte level and the rank table, 4 x 60 (1 512 beside
		// the two 60-bit scratch bitmaps of the global join).
		{name: "cliques/fails-before-first-byte", upload: small, path: "cliques?lo=2&mem=1&format=text",
			want: reply{507, "miss", "481", "", jsonCT,
				"{\"error\":\"hybrid: level 2-\\u003e3: memory budget exceeded: peak 1736 bytes resident \\u003e budget 481\"}\n"}},
		// Small cliques come from the seed at any width.
		{name: "cliques/small-workers", upload: small, path: "cliques?lo=1&small=1&workers=2&format=text",
			want: reply{200, "miss", "67109344", "", textCT, smallOnes}},

		{name: "maxclique/miss", upload: small, path: "maxclique",
			want: reply{200, "miss", "", "", jsonCT, maxClique}},
		{name: "maxclique/hit", upload: small, path: "maxclique", warm: true,
			want: reply{200, "hit", "", "", jsonCT, maxClique}},
		{name: "maxclique/shed", cfg: tight, upload: small, path: "maxclique", prepare: occupy,
			want: reply{503, "", "", "2", jsonCT, timedOut}},
		{name: "maxclique/never-fits", cfg: tiny, upload: small, path: "maxclique",
			want: reply{507, "", "", "", jsonCT, strings.Replace(neverFits, "67109344", "1049056", 1)}},
		{name: "maxclique/unknown-graph", upload: small, path: "!maxclique",
			want: reply{404, "", "", "", jsonCT, noGraph}},
		{name: "maxclique/disconnect", upload: dense, path: "maxclique", hangUp: true},

		{name: "paracliques/miss", upload: small, path: "paracliques?lo=4&glom=0.9",
			want: reply{200, "miss", "", "", jsonCT, paracliques}},
		{name: "paracliques/hit", upload: small, path: "paracliques?lo=4&glom=0.9", warm: true,
			want: reply{200, "hit", "", "", jsonCT, paracliques}},
		{name: "paracliques/shed", cfg: tight, upload: small, path: "paracliques?lo=4&glom=0.9&mem=1048576", prepare: occupy,
			want: reply{503, "", "", "2", jsonCT, timedOut}},
		{name: "paracliques/never-fits", cfg: tiny, upload: small, path: "paracliques?lo=4&glom=0.9",
			want: reply{507, "", "", "", jsonCT, neverFits}},
		{name: "paracliques/unknown-graph", upload: small, path: "!paracliques",
			want: reply{404, "", "", "", jsonCT, noGraph}},
		{name: "paracliques/disconnect", upload: denser, path: "paracliques", hangUp: true},
		// The hang-up lands inside the first seed's exact search, which
		// alone would run for longer than any test: the search itself
		// stops.
		{name: "paracliques/disconnect-mid-search", upload: dense, path: "paracliques", hangUp: true,
			within: 100 * time.Millisecond},
		// Extraction never polls its governor: the smallest budget changes nothing.
		{name: "paracliques/budget-trip", upload: small, path: "paracliques?lo=4&glom=0.9&mem=1",
			want: reply{200, "miss", "", "", jsonCT, paracliques}},
		{name: "paracliques/bad-bounds", upload: small, path: "paracliques?lo=-1",
			want: reply{400, "", "", "", jsonCT, badBounds}},
		// NaN fails every comparison, so a range check must be written to
		// reject it; let through, it gloms the whole graph into one.
		{name: "paracliques/glom-nan", upload: small, path: "paracliques?glom=NaN",
			want: reply{400, "", "", "", jsonCT, `{"error":"glom: want a number in (0,1], got \"NaN\""}` + "\n"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := service.New(c.cfg)
			ts := httptest.NewServer(srv)
			defer ts.Close()
			fp := loadGraph(t, ts, c.upload)
			url := ts.URL + "/graphs/" + fp + "/" + c.path
			if c.path[0] == '!' {
				url = ts.URL + "/graphs/deadbeef00000000/" + c.path[1:]
			}
			if c.warm {
				fetch(t, url, 0)
			}
			http.DefaultClient.CloseIdleConnections()
			check := testgraph.NoLeaks(t, srv.Governor()) // entry value: the pinned graph
			baseline := srv.Governor().Used()
			undo := func() {}
			if c.prepare != nil {
				undo = c.prepare(t, srv)
			}
			var got reply
			if c.hangUp {
				hangUp(t, srv, url)
			} else {
				got = fetch(t, url, c.partial)
			}
			undo()
			http.DefaultClient.CloseIdleConnections()
			// A handler outlives the client that hung up on it; wait for it
			// to return everything, then look for what it left behind.
			settle := 10 * time.Second
			if c.within > 0 {
				settle = c.within
			}
			for deadline := time.Now().Add(settle); ; time.Sleep(time.Millisecond) {
				snap := srv.Snapshot()
				info, _ := srv.Registry().Info(fp)
				if snap.Active == 0 && snap.Queued == 0 && info.ActiveQueries == 0 && srv.Governor().Used() == baseline {
					if snap.ResidualBytes != 0 {
						t.Errorf("%d residual bytes", snap.ResidualBytes)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%v after the query ended, left behind: %d active, %d queued, %d graph references, governor at %d (baseline %d)",
						settle, snap.Active, snap.Queued, info.ActiveQueries, srv.Governor().Used(), baseline)
				}
			}
			check()

			if c.bodyFNV != 0 {
				h := fnv.New64a()
				h.Write([]byte(got.body))
				if h.Sum64() != c.bodyFNV {
					t.Errorf("body: %d bytes hashing to %#x, want %#x", len(got.body), h.Sum64(), c.bodyFNV)
				}
				got.body = ""
			}
			if got != c.want {
				t.Errorf("client saw\n%+v\nwant\n%+v", got, c.want)
			}
		})
	}
}

// TestMaxCliqueChargesDenseCopy: the exact search densifies a CSR graph
// for as long as it runs, and the copy is the query's.  A sparse
// 400-vertex upload is CSR (4 x (401 + 2m) bytes against the dense
// 400 x 7 words x 8 = 22 400); while /maxclique runs, the server
// governor holds the pinned graph and the dense copy, so its peak reaches
// the entry value plus DenseAdjacencyBytes(400), and once the reply is
// out it is back at the entry value.
func TestMaxCliqueChargesDenseCopy(t *testing.T) {
	const n = 400
	srv, ts := newServer(t, service.Config{})
	fp := loadGraph(t, ts, testGraphBytes(t, 7, n, 0.01))
	if info, _ := srv.Registry().Info(fp); info.Representation != "csr" {
		t.Fatalf("the upload is %s, want csr", info.Representation)
	}
	gov := srv.Governor()
	entry, dense := gov.Used(), repro.DenseAdjacencyBytes(n)
	if gov.Peak() >= entry+dense {
		t.Fatalf("peak %d before the query already covers the copy (entry %d + %d)", gov.Peak(), entry, dense)
	}
	if status, _, _ := get(t, ts.URL+"/graphs/"+fp+"/maxclique"); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if peak := gov.Peak(); peak < entry+dense {
		t.Errorf("peak %d during the search, want at least %d + %d for the dense copy", peak, entry, dense)
	}
	for deadline := time.Now().Add(10 * time.Second); gov.Used() != entry; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("governor at %d after the query, entry value %d", gov.Used(), entry)
		}
	}
}
