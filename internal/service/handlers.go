package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/enumcfg"
	"repro/internal/maxclique"
	"repro/internal/membudget"
)

// writeJSON writes a JSON response.  Encode errors mean the client hung
// up mid-body; there is no channel left to report on.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorJSON writes the uniform error envelope.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shed maps an admission failure to its HTTP response: queue-full and
// queue-timeout become 503 + Retry-After, a reservation that can never
// fit becomes 507, and a client that hung up while queued gets nothing.
func (s *Server) shed(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQueueTimeout):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, membudget.ErrNoHeadroom):
		errorJSON(w, http.StatusInsufficientStorage, "%v", err)
	default:
		// Client disconnected while queued; the connection is gone.
	}
}

// ---- graph management -------------------------------------------------

func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	format, err := repro.ParseGraphFormat(r.URL.Query().Get("format"))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep, err := repro.ParseRepresentation(valueOr(r.URL.Query().Get("rep"), "auto"))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The body streams straight into the graph builder — an uploaded
	// genome-scale edge list never touches a temp file.
	g, err := repro.ReadGraph(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), format, rep)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "parse graph: %v", err)
		return
	}
	e, loaded, err := s.reg.Add(r.URL.Query().Get("name"), g)
	if err != nil {
		if errors.Is(err, membudget.ErrNoHeadroom) {
			errorJSON(w, http.StatusInsufficientStorage, "load graph: %v", err)
		} else {
			errorJSON(w, http.StatusInternalServerError, "load graph: %v", err)
		}
		return
	}
	info, _ := s.reg.Info(e.Fingerprint)
	status := http.StatusOK
	if loaded {
		status = http.StatusCreated
	}
	writeJSON(w, status, info)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	info, ok := s.reg.Info(r.PathValue("fp"))
	if !ok {
		errorJSON(w, http.StatusNotFound, "no graph with fingerprint %s", r.PathValue("fp"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if err := s.reg.Remove(fp); err != nil {
		if errors.Is(err, ErrGraphBusy) {
			errorJSON(w, http.StatusConflict, "%v", err)
		} else {
			errorJSON(w, http.StatusNotFound, "%v", err)
		}
		return
	}
	// The graph's streams can never be served again; its headroom can.
	s.cache.Invalidate(fp + "|")
	s.adm.Signal()
	writeJSON(w, http.StatusOK, map[string]string{"evicted": fp})
}

// ---- graph queries: the one request path ------------------------------

// runFunc computes one admitted query's reply on g under the lease's
// governor, writing it through out.  A returned error ends the request:
// serve answers it with a status while no byte is out, and caches
// nothing.
type runFunc func(ctx context.Context, g repro.GraphInterface, gov *membudget.Governor, out *response) error

// response is the reply of a cache miss: the client's writer plus the
// prospective cache entry every written byte is teed into.  The entry is
// dropped the moment it outgrows what the cache would accept, so an
// uncacheably huge stream costs no memory here.
type response struct {
	http.ResponseWriter
	contentType string
	reserved    int64         // the admitted reservation in bytes
	entry       *bytes.Buffer // nil once the body outgrew limit (at once when caching is off: limit 0)
	limit       int64
	wrote       bool // a body write was attempted; the status line is out
}

// begin commits the miss headers.  A streamed reply begins before its
// run can fail (a failure before the first byte then still names the
// miss), a buffered one only once its body exists.
func (o *response) begin() {
	o.Header().Set("Content-Type", o.contentType)
	o.Header().Set("X-Cliqued-Cache", "miss")
}

func (o *response) Write(p []byte) (int, error) {
	o.wrote = true
	n, err := o.ResponseWriter.Write(p)
	if err == nil && o.entry != nil {
		o.entry.Write(p)
		if int64(o.entry.Len()) > o.limit {
			o.entry = nil
		}
	}
	return n, err
}

// serve is the request path the three graph queries share (DESIGN.md
// §8.1), written once: pin the graph in the registry, count the query,
// replay a cached body byte for byte (O(1): no admission, no run), else
// reserve reserve(g) bytes through admission — shedding with 503/507 when
// they cannot be had — run under the lease's governor, and cache the
// completed body under fingerprint|key.  The lease and the graph
// reference are returned on every exit path.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, key, contentType string,
	reserve func(g repro.GraphInterface) int64, run runFunc) {
	fp := r.PathValue("fp")
	e, err := s.reg.Acquire(fp)
	if err != nil {
		errorJSON(w, http.StatusNotFound, "%v", err)
		return
	}
	defer s.reg.Release(e)
	s.queries.Add(1)

	ckey := fp + "|" + key
	if body, ct, ok := s.cache.Get(ckey); ok {
		w.Header().Set("Content-Type", ct)
		w.Header().Set("X-Cliqued-Cache", "hit")
		_, _ = w.Write(body) //nolint:cleanuperr client hung up mid-replay; no channel left
		return
	}

	lease, err := s.adm.Acquire(r.Context(), reserve(e.G))
	if err != nil {
		s.shed(w, err)
		return
	}
	s.active.Add(1)
	defer func() {
		s.residual.Add(lease.Close())
		s.active.Add(-1)
	}()

	out := &response{ResponseWriter: w, contentType: contentType, reserved: lease.Amount(),
		entry: &bytes.Buffer{}, limit: s.cache.EntryLimit()}
	if err := run(r.Context(), e.G, lease.Governor(), out); err != nil {
		// A client that hung up has no channel left, and a status cannot
		// follow bytes already out (NDJSON signalled in-band, text simply
		// ends).  Either way the run observed the context or the failed
		// write and exited, so what the deferred cleanups release is free.
		if !out.wrote && !errors.Is(err, context.Canceled) {
			status := http.StatusInternalServerError
			if errors.Is(err, repro.ErrMemoryBudget) {
				status = http.StatusInsufficientStorage
			}
			errorJSON(w, status, "%v", err)
		}
		return
	}
	if out.entry != nil {
		s.cache.Put(ckey, contentType, out.entry.Bytes())
	}
}

// reservation sizes a query's admission reservation: the caller's mem=
// if given, else the graph's adjacency bytes plus the configured working
// headroom.  The registry pin already holds the adjacency bytes resident
// (the run itself does not re-charge them — repro.WithGraphCharged), so
// the graph-sized share of the reservation is pure working headroom:
// enough to cover a requested representation conversion, which is the
// one per-query copy of graph-scale data.
func (s *Server) reservation(mem int64) func(g repro.GraphInterface) int64 {
	return func(g repro.GraphInterface) int64 {
		n := mem
		if n == 0 {
			n = g.Bytes() + s.cfg.QueryHeadroom
		}
		return max(n, g.Bytes()+1)
	}
}

// buffered is the runFunc of a query whose whole JSON reply is computed
// before any of it is sent.
func buffered(compute func(ctx context.Context, g repro.GraphInterface, gov *membudget.Governor) (any, error)) runFunc {
	return func(ctx context.Context, g repro.GraphInterface, gov *membudget.Governor, out *response) error {
		v, err := compute(ctx, g, gov)
		if err != nil {
			return err
		}
		body, err := json.Marshal(v)
		if err != nil {
			return err
		}
		out.begin()
		_, err = out.Write(append(body, '\n'))
		return err
	}
}

// ---- enumerate queries ------------------------------------------------

// cliqueQuery is one parsed enumerate request.
type cliqueQuery struct {
	lo, hi  int
	workers int
	strat   repro.Strategy
	small   bool
	rep     repro.Representation
	repSet  bool
	mem     int64
	format  string // "ndjson" or "text"
	ctype   string // the format's Content-Type
}

// parseCliqueQuery decodes and validates the query parameters of the
// enumerate endpoint.  maxWorkers caps workers=: the parallel
// pool allocates per-worker scratch before the governor sees a byte, so
// an unbounded count would be an ungoverned allocation a single request
// controls.  Requests above the cap are clamped — more workers than
// the server allows cannot stream different bytes, only waste memory.
func parseCliqueQuery(r *http.Request, maxWorkers int) (q cliqueQuery, err error) {
	v := r.URL.Query()
	if q.lo, err = intParam(v.Get("lo"), 3); err != nil {
		return q, fmt.Errorf("lo: %v", err)
	}
	if q.hi, err = intParam(v.Get("hi"), 0); err != nil {
		return q, fmt.Errorf("hi: %v", err)
	}
	if err = checkBounds(q.lo, q.hi); err != nil {
		return q, err
	}
	if q.workers, err = intParam(v.Get("workers"), 1); err != nil {
		return q, fmt.Errorf("workers: %v", err)
	}
	if q.workers < 0 {
		return q, fmt.Errorf("workers: want a non-negative count, got %d", q.workers)
	}
	if q.workers > maxWorkers {
		q.workers = maxWorkers
	}
	switch v.Get("strategy") {
	case "", "contiguous":
		q.strat = repro.Contiguous
	case "affinity":
		q.strat = repro.Affinity
	default:
		return q, fmt.Errorf("strategy: unknown %q (want affinity or contiguous)", v.Get("strategy"))
	}
	q.small = v.Get("small") == "1" || v.Get("small") == "true"
	if rs := v.Get("rep"); rs != "" {
		if q.rep, err = repro.ParseRepresentation(rs); err != nil {
			return q, err
		}
		q.repSet = true
	}
	if q.mem, err = memParam(v.Get("mem")); err != nil {
		return q, err
	}
	switch v.Get("format") {
	case "", "ndjson":
		q.format, q.ctype = "ndjson", "application/x-ndjson"
	case "text":
		q.format, q.ctype = "text", "text/plain; charset=utf-8"
	default:
		return q, fmt.Errorf("format: unknown %q (want ndjson or text)", v.Get("format"))
	}
	return q, nil
}

// options assembles the facade options for the parsed query (the run
// appends the lease's governor once admission succeeded).
func (q cliqueQuery) options() []repro.Option {
	opts := []repro.Option{repro.WithBounds(q.lo, q.hi)}
	if q.workers > 1 {
		opts = append(opts, repro.WithWorkers(q.workers), repro.WithStrategy(q.strat))
	}
	if q.small {
		opts = append(opts, repro.WithReportSmall())
	}
	if q.repSet {
		opts = append(opts, repro.WithGraphRepresentation(q.rep))
	}
	return opts
}

// cacheKey scopes a cached stream, below its graph's fingerprint, to
// exactly what determines its bytes: the output-identity of the config
// (enumcfg.Config.Key() — execution policy deliberately excluded; every
// backend streams identical bytes) and the wire format.
func (q cliqueQuery) cacheKey() string {
	cfg := enumcfg.Config{Lo: q.lo, Hi: q.hi, ReportSmall: q.small}
	return cfg.Key() + "|" + q.format
}

func (s *Server) handleCliques(w http.ResponseWriter, r *http.Request) {
	q, err := parseCliqueQuery(r, s.cfg.MaxWorkers)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serve(w, r, q.cacheKey(), q.ctype, s.reservation(q.mem), q.stream)
}

// stream is the enumerate endpoint's runFunc: cliques go out as the
// iterator yields them, one flushed line each.
func (q cliqueQuery) stream(ctx context.Context, g repro.GraphInterface, gov *membudget.Governor, out *response) error {
	var st repro.Stats
	// WithGraphCharged: the registry pin already charged the adjacency
	// bytes to the shared governor; charging them again from this run's
	// child would inflate the parent's Used by graphBytes per active
	// query.
	opts := append(q.options(),
		repro.WithGovernor(gov), repro.WithGraphCharged(), repro.WithStats(&st))
	out.begin()
	out.Header().Set("X-Cliqued-Reservation", strconv.FormatInt(out.reserved, 10))
	flusher, _ := out.ResponseWriter.(http.Flusher)

	var line bytes.Buffer
	for c, rerr := range repro.NewEnumerator(opts...).Cliques(ctx, g) {
		if rerr != nil {
			// A mid-stream failure (cancellation, budget trip) cannot
			// change the status line once bytes are out: NDJSON signals it
			// in-band, text simply ends.
			if out.wrote && q.format == "ndjson" {
				msg, _ := json.Marshal(rerr.Error())
				if _, werr := fmt.Fprintf(out.ResponseWriter, "{\"error\":%s}\n", msg); werr != nil {
					return werr // client gone too; nothing left to report on
				}
			}
			return rerr
		}
		line.Reset()
		if q.format == "text" {
			writeTextClique(&line, g, c)
		} else {
			writeNDJSONClique(&line, c)
		}
		if _, werr := out.Write(line.Bytes()); werr != nil {
			return werr // client hung up; the range break cancels the run
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if q.format == "ndjson" {
		return writeNDJSONSummary(out, &st)
	}
	return nil
}

// writeTextClique renders one clique exactly the way cmd/cliquer prints
// it — vertex names joined by single spaces, one line — so a text
// stream from the service is byte-identical to the CLI's output for the
// same graph and bounds (pinned by TestStreamParity).
func writeTextClique(buf *bytes.Buffer, g repro.GraphInterface, c repro.Clique) {
	for i, v := range c {
		if i > 0 {
			buf.WriteByte(' ')
		}
		buf.WriteString(g.Name(v))
	}
	buf.WriteByte('\n')
}

// writeNDJSONClique renders one clique as one NDJSON record.
func writeNDJSONClique(buf *bytes.Buffer, c repro.Clique) {
	buf.WriteString(`{"size":`)
	buf.WriteString(strconv.Itoa(len(c)))
	buf.WriteString(`,"vertices":[`)
	for i, v := range c {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(strconv.Itoa(v))
	}
	buf.WriteString("]}\n")
}

// writeNDJSONSummary is the terminal record of a successful NDJSON
// stream: the run's statistics, so a client knows the stream is
// complete (a stream without it was truncated).
func writeNDJSONSummary(w io.Writer, st *repro.Stats) error {
	_, err := fmt.Fprintf(w,
		"{\"done\":true,\"count\":%d,\"max_size\":%d,\"backend\":%q,\"peak_bytes\":%d,\"elapsed_ms\":%.3f}\n",
		st.MaximalCliques, st.MaxCliqueSize, st.Backend, st.PeakBytes,
		float64(st.Elapsed)/float64(time.Millisecond))
	return err
}

// ---- maxclique / paracliques -----------------------------------------

func (s *Server) handleMaxClique(w http.ResponseWriter, r *http.Request) {
	// The search runs inside one neighbourhood at a time and never
	// densifies: the reservation covers the bound on what it charges.
	reserve := func(g repro.GraphInterface) int64 {
		return g.Bytes() + 1<<20 + maxclique.Bytes(g)
	}
	s.serve(w, r, "maxclique", "application/json", reserve,
		buffered(func(ctx context.Context, g repro.GraphInterface, gov *membudget.Governor) (any, error) {
			start := time.Now()
			// On a hang-up the branch-and-bound observes ctx and exits.
			cliqueVerts, _, err := maxclique.Search(ctx, g, gov)
			return map[string]any{
				"size":       len(cliqueVerts),
				"vertices":   cliqueVerts,
				"elapsed_ms": float64(time.Since(start)) / float64(time.Millisecond),
			}, err
		}))
}

func (s *Server) handleParacliques(w http.ResponseWriter, r *http.Request) {
	// Only what the endpoint reads is parsed: a format=, strategy= or
	// workers= value means nothing here and refuses nothing.
	v := r.URL.Query()
	lo, err := intParam(v.Get("lo"), 3)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "lo: %v", err)
		return
	}
	if err := checkBounds(lo, 0); err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	mem, err := memParam(v.Get("mem"))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	glom := 0.8
	if gs := v.Get("glom"); gs != "" {
		glom, err = strconv.ParseFloat(gs, 64)
		if err != nil || !(glom > 0 && glom <= 1) {
			errorJSON(w, http.StatusBadRequest, "glom: want a number in (0,1], got %q", gs)
			return
		}
	}
	key := fmt.Sprintf("paracliques:lo=%d,glom=%s", lo, strconv.FormatFloat(glom, 'g', -1, 64))
	s.serve(w, r, key, "application/json", s.reservation(mem),
		buffered(func(ctx context.Context, g repro.GraphInterface, gov *membudget.Governor) (any, error) {
			enum := repro.NewEnumerator(
				repro.WithBounds(lo, 0), repro.WithGovernor(gov), repro.WithGraphCharged())
			ps, err := enum.Paracliques(ctx, g, glom)
			if err != nil {
				return nil, err
			}
			type pc struct {
				Vertices []int   `json:"vertices"`
				CoreSize int     `json:"core_size"`
				Density  float64 `json:"density"`
			}
			out := make([]pc, len(ps))
			for i, p := range ps {
				out[i] = pc{Vertices: p.Vertices, CoreSize: p.CoreSize, Density: p.Density}
			}
			return map[string]any{"count": len(out), "paracliques": out}, nil
		}))
}

// ---- pathways ---------------------------------------------------------

// pathwayRequest is the JSON body of POST /pathways: a stoichiometric
// network.  Stoich maps reaction-local metabolite index (as a JSON
// string key) to its coefficient, negative for consumed.
type pathwayRequest struct {
	Metabolites []string `json:"metabolites"`
	Reactions   []struct {
		Name       string           `json:"name"`
		Reversible bool             `json:"reversible"`
		Stoich     map[string]int64 `json:"stoich"`
	} `json:"reactions"`
}

func (s *Server) handlePathways(w http.ResponseWriter, r *http.Request) {
	var req pathwayRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		errorJSON(w, http.StatusBadRequest, "decode network: %v", err)
		return
	}
	s.queries.Add(1)
	net := &repro.MetabolicNetwork{Metabolites: req.Metabolites}
	for _, rx := range req.Reactions {
		stoich := make(map[int]int64, len(rx.Stoich))
		for k, v := range rx.Stoich {
			idx, err := strconv.Atoi(k)
			if err != nil || idx < 0 || idx >= len(req.Metabolites) {
				errorJSON(w, http.StatusBadRequest,
					"reaction %q: bad metabolite index %q", rx.Name, k)
				return
			}
			stoich[idx] = v
		}
		net.AddReaction(rx.Name, rx.Reversible, stoich)
	}
	modes, err := repro.ElementaryFluxModes(net)
	if err != nil {
		errorJSON(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	type mode struct {
		Flux    []string `json:"flux"`
		Support []int    `json:"support"`
		Text    string   `json:"text"`
	}
	out := make([]mode, len(modes))
	for i, m := range modes {
		fl := make([]string, len(m.Flux))
		for j, f := range m.Flux {
			fl[j] = f.String()
		}
		out[i] = mode{Flux: fl, Support: m.Support(), Text: m.String()}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(out), "modes": out})
}

// ---- health -----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// ---- small helpers ----------------------------------------------------

// checkBounds refuses a size range the facade would refuse, by the
// facade's own rule, while the request is parsed: before it takes a
// registry reference or an admission reservation.
func checkBounds(lo, hi int) error {
	c := enumcfg.Config{Lo: lo, Hi: hi}
	return c.Normalize()
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("want an integer, got %q", s)
	}
	return n, nil
}

// memParam parses mem=, a query's own reservation in bytes ("" = 0: the
// server's default).
func memParam(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	m, err := strconv.ParseInt(s, 10, 64)
	if err != nil || m <= 0 {
		return 0, fmt.Errorf("mem: want a positive byte count, got %q", s)
	}
	return m, nil
}

func valueOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
