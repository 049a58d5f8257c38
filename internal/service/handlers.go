package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/enumcfg"
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

// ---- enumerate queries ------------------------------------------------

// cliqueQuery is one parsed enumerate request.
type cliqueQuery struct {
	lo, hi  int
	workers int
	strat   repro.Strategy
	store   bool // mode=store: the paper's stored-bitmap policy ("" = the default)
	small   bool
	rep     repro.Representation
	repSet  bool
	mem     int64
	format  string // "ndjson" or "text"
}

// parseCliqueQuery decodes and validates the query parameters all
// enumeration endpoints share.  maxWorkers caps workers=: the parallel
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
	switch v.Get("mode") {
	case "":
	case "store":
		q.store = true
	default:
		return q, fmt.Errorf("mode: unknown %q (want store, or nothing for the default)", v.Get("mode"))
	}
	q.small = v.Get("small") == "1" || v.Get("small") == "true"
	if rs := v.Get("rep"); rs != "" {
		if q.rep, err = repro.ParseRepresentation(rs); err != nil {
			return q, err
		}
		q.repSet = true
	}
	if ms := v.Get("mem"); ms != "" {
		m, perr := strconv.ParseInt(ms, 10, 64)
		if perr != nil || m <= 0 {
			return q, fmt.Errorf("mem: want a positive byte count, got %q", ms)
		}
		q.mem = m
	}
	switch v.Get("format") {
	case "", "ndjson":
		q.format = "ndjson"
	case "text":
		q.format = "text"
	default:
		return q, fmt.Errorf("format: unknown %q (want ndjson or text)", v.Get("format"))
	}
	return q, nil
}

// options assembles the facade options for the parsed query (the
// governor is appended by the handler once admission succeeds).
func (q cliqueQuery) options() []repro.Option {
	opts := []repro.Option{repro.WithBounds(q.lo, q.hi)}
	if q.workers > 1 {
		opts = append(opts, repro.WithWorkers(q.workers), repro.WithStrategy(q.strat))
	}
	if q.store {
		opts = append(opts, repro.WithStoredBitmaps())
	}
	if q.small {
		opts = append(opts, repro.WithReportSmall())
	}
	if q.repSet {
		opts = append(opts, repro.WithGraphRepresentation(q.rep))
	}
	return opts
}

// cacheKey scopes a cached stream to exactly what determines its bytes:
// the graph identity, the output-identity of the config
// (enumcfg.Config.Key() — execution policy deliberately excluded; every
// backend streams identical bytes), and the wire format.
func (q cliqueQuery) cacheKey(fp string) string {
	cfg := enumcfg.Config{Lo: q.lo, Hi: q.hi, ReportSmall: q.small}
	return fp + "|" + cfg.Key() + "|" + q.format
}

// reservation sizes the query's admission reservation: the caller's
// mem= if given, else the graph's adjacency bytes plus the configured
// working headroom.  The registry pin already holds the adjacency
// bytes resident (the run itself does not re-charge them —
// repro.WithGraphCharged), so the graph-sized share of the reservation
// is pure working headroom: enough to cover a requested representation
// conversion, which is the one per-query copy of graph-scale data.
func (q cliqueQuery) reservation(graphBytes, headroom int64) int64 {
	n := q.mem
	if n == 0 {
		n = graphBytes + headroom
	}
	if n < graphBytes+1 {
		n = graphBytes + 1
	}
	return n
}

func (s *Server) handleCliques(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	q, err := parseCliqueQuery(r, s.cfg.MaxWorkers)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, err := s.reg.Acquire(fp)
	if err != nil {
		errorJSON(w, http.StatusNotFound, "%v", err)
		return
	}
	defer s.reg.Release(e)
	s.queries.Add(1)

	contentType := "application/x-ndjson"
	if q.format == "text" {
		contentType = "text/plain; charset=utf-8"
	}

	// O(1) fast path: a completed identical stream replays byte for
	// byte, no admission, no enumeration.
	ckey := q.cacheKey(fp)
	if body, ct, ok := s.cache.Get(ckey); ok {
		w.Header().Set("Content-Type", ct)
		w.Header().Set("X-Cliqued-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		if _, werr := w.Write(body); werr != nil {
			return // client hung up mid-replay
		}
		return
	}

	lease, err := s.adm.Acquire(r.Context(), q.reservation(e.G.Bytes(), s.cfg.QueryHeadroom))
	if err != nil {
		s.shed(w, err)
		return
	}
	s.active.Add(1)
	defer func() {
		s.residual.Add(lease.Close())
		s.active.Add(-1)
	}()

	var st repro.Stats
	// WithGraphCharged: the registry pin already charged the adjacency
	// bytes to the shared governor; charging them again from this run's
	// child would inflate the parent's Used by graphBytes per active
	// query.
	opts := append(q.options(),
		repro.WithGovernor(lease.Governor()), repro.WithGraphCharged(), repro.WithStats(&st))
	enum := repro.NewEnumerator(opts...)

	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Cliqued-Cache", "miss")
	w.Header().Set("X-Cliqued-Reservation", strconv.FormatInt(lease.Amount(), 10))
	flusher, _ := w.(http.Flusher)

	// Tee the stream into a prospective cache entry; the buffer is
	// dropped the moment it outgrows what the cache would accept, so an
	// uncacheably huge stream costs no memory here.
	var cacheBuf *bytes.Buffer
	if limit := s.cache.EntryLimit(); limit > 0 {
		cacheBuf = &bytes.Buffer{}
	}

	var line bytes.Buffer
	wroteAny := false
	for c, rerr := range enum.Cliques(r.Context(), e.G) {
		if rerr != nil {
			// Mid-stream failures (cancellation, budget trip) cannot
			// change the status line once bytes are out; NDJSON signals
			// in-band, text simply ends.  Nothing is cached.
			s.streamError(w, q.format, wroteAny, rerr)
			return
		}
		line.Reset()
		if q.format == "text" {
			writeTextClique(&line, e.G, c)
		} else {
			writeNDJSONClique(&line, c)
		}
		if _, werr := w.Write(line.Bytes()); werr != nil {
			return // client hung up; the range break cancels the run
		}
		wroteAny = true
		if cacheBuf != nil {
			cacheBuf.Write(line.Bytes())
			if int64(cacheBuf.Len()) > s.cache.EntryLimit() {
				cacheBuf = nil
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	if q.format == "ndjson" {
		line.Reset()
		writeNDJSONSummary(&line, &st)
		if _, werr := w.Write(line.Bytes()); werr != nil {
			return
		}
		if cacheBuf != nil {
			cacheBuf.Write(line.Bytes())
		}
	}
	if cacheBuf != nil {
		s.cache.Put(ckey, contentType, cacheBuf.Bytes())
	}
}

// streamError reports a failed run: as a status code while the response
// is still unstarted, in-band for NDJSON once bytes are out.
func (s *Server) streamError(w http.ResponseWriter, format string, wroteAny bool, err error) {
	if !wroteAny {
		if errors.Is(err, context.Canceled) {
			return // client hung up before the first clique
		}
		status := http.StatusInternalServerError
		if errors.Is(err, repro.ErrMemoryBudget) {
			status = http.StatusInsufficientStorage
		}
		errorJSON(w, status, "%v", err)
		return
	}
	if format == "ndjson" {
		msg, _ := json.Marshal(err.Error())
		if _, werr := fmt.Fprintf(w, "{\"error\":%s}\n", msg); werr != nil {
			return // client gone too; nothing left to report on
		}
	}
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
func writeNDJSONSummary(buf *bytes.Buffer, st *repro.Stats) {
	fmt.Fprintf(buf,
		"{\"done\":true,\"count\":%d,\"max_size\":%d,\"backend\":%q,\"peak_bytes\":%d,\"elapsed_ms\":%.3f}\n",
		st.MaximalCliques, st.MaxCliqueSize, st.Backend, st.PeakBytes,
		float64(st.Elapsed)/float64(time.Millisecond))
}

// ---- maxclique / paracliques -----------------------------------------

func (s *Server) handleMaxClique(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	e, err := s.reg.Acquire(fp)
	if err != nil {
		errorJSON(w, http.StatusNotFound, "%v", err)
		return
	}
	defer s.reg.Release(e)
	s.queries.Add(1)

	ckey := fp + "|maxclique"
	if body, _, ok := s.cache.Get(ckey); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cliqued-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body) //nolint:cleanuperr client hung up mid-replay; no channel left
		return
	}

	// The exact search densifies non-dense graphs; reserve for that
	// worst case so a genome-scale CSR graph cannot OOM the server
	// through this endpoint (it is refused or queued instead).
	n := e.G.Bytes() + 1<<20
	if e.G.Representation() != repro.Dense {
		n += repro.DenseAdjacencyBytes(e.G.N())
	}
	lease, err := s.adm.Acquire(r.Context(), n)
	if err != nil {
		s.shed(w, err)
		return
	}
	s.active.Add(1)
	defer func() {
		s.residual.Add(lease.Close())
		s.active.Add(-1)
	}()

	start := time.Now()
	cliqueVerts, err := repro.MaxCliqueContext(r.Context(), e.G)
	if err != nil {
		// Client hung up mid-search: the branch-and-bound observed the
		// context and exited, so the lease and graph reference the
		// deferred cleanups release really are free now.  No response
		// channel is left to report on.
		return
	}
	body, err := json.Marshal(map[string]any{
		"size":       len(cliqueVerts),
		"vertices":   cliqueVerts,
		"elapsed_ms": float64(time.Since(start)) / float64(time.Millisecond),
	})
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cliqued-Cache", "miss")
	if _, werr := w.Write(body); werr != nil {
		return
	}
	s.cache.Put(ckey, "application/json", body)
}

func (s *Server) handleParacliques(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	q, err := parseCliqueQuery(r, s.cfg.MaxWorkers)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	glom := 0.8
	if gs := r.URL.Query().Get("glom"); gs != "" {
		glom, err = strconv.ParseFloat(gs, 64)
		if err != nil || glom <= 0 || glom > 1 {
			errorJSON(w, http.StatusBadRequest, "glom: want a number in (0,1], got %q", gs)
			return
		}
	}
	e, err := s.reg.Acquire(fp)
	if err != nil {
		errorJSON(w, http.StatusNotFound, "%v", err)
		return
	}
	defer s.reg.Release(e)
	s.queries.Add(1)

	ckey := fmt.Sprintf("%s|paracliques:lo=%d,glom=%s", fp, q.lo,
		strconv.FormatFloat(glom, 'g', -1, 64))
	if body, _, ok := s.cache.Get(ckey); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cliqued-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body) //nolint:cleanuperr client hung up mid-replay; no channel left
		return
	}

	lease, err := s.adm.Acquire(r.Context(), q.reservation(e.G.Bytes(), s.cfg.QueryHeadroom))
	if err != nil {
		s.shed(w, err)
		return
	}
	s.active.Add(1)
	defer func() {
		s.residual.Add(lease.Close())
		s.active.Add(-1)
	}()

	enum := repro.NewEnumerator(
		repro.WithBounds(q.lo, 0), repro.WithGovernor(lease.Governor()),
		repro.WithGraphCharged())
	ps, err := enum.Paracliques(r.Context(), e.G, glom)
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
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
	body, err := json.Marshal(map[string]any{"count": len(out), "paracliques": out})
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cliqued-Cache", "miss")
	if _, werr := w.Write(body); werr != nil {
		return
	}
	s.cache.Put(ckey, "application/json", body)
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

func valueOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
