// Package service is the multi-tenant clique query service behind
// cmd/cliqued: a long-lived HTTP/JSON daemon that turns the repro
// enumeration facade into a shared, memory-governed computational
// resource — the paper's genome-scale clique machinery serving many
// concurrent clients instead of one command line.
//
// The moving parts and their invariants (DESIGN.md §8.1):
//
//   - Registry: graphs are loaded once (streamed straight off the
//     request body, no temp files) and keyed by repro.Fingerprint — the
//     same FNV identity the out-of-core checkpoint manifest stores, so
//     every layer of the system agrees on what "the same graph" means.
//     Each loaded graph pins its adjacency bytes under a
//     membudget.Reservation carved from the server governor.
//   - Admission: one shared membudget.Governor holds the whole server's
//     budget.  Every query must reserve its working memory before it
//     runs; when headroom is tight the request waits in a bounded FIFO
//     queue, and past the depth limit it is shed with 503 +
//     Retry-After.  A query's reservation is closed on every exit path
//     — success, error, budget trip, or client disconnect — so the
//     governor always returns to baseline.
//   - Streaming: enumerate queries stream NDJSON (or cliquer-parity
//     text) over a chunked response directly from the Cliques iterator;
//     the client sees cliques as they are enumerated, and hanging up
//     cancels the run through the per-request context.
//   - Cache: completed streams are cached in an LRU keyed by
//     (graph fingerprint, enumcfg.Config.Key(), format), so a repeated
//     query on a hot graph is O(1) and byte-identical to the original.
package service

import (
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/membudget"
)

// Config tunes a Server.  The zero value is usable: unlimited memory,
// default queue and cache sizes.
type Config struct {
	// Budget is the server-wide memory governor budget in bytes: the
	// bound on everything resident across loaded graphs and concurrent
	// query working sets.  0 means unlimited (observe only).
	Budget int64
	// QueueDepth bounds the admission wait queue: a query that cannot
	// reserve memory waits while fewer than QueueDepth others are
	// already waiting, and is shed with 503 + Retry-After past it.
	// Default 16.
	QueueDepth int
	// QueueWait bounds how long a queued query waits for headroom
	// before it is shed.  Default 30s.
	QueueWait time.Duration
	// QueryHeadroom is the default working-memory reservation a query
	// makes above its graph's adjacency bytes when the request does not
	// name one with mem=.  Default 64 MiB.
	QueryHeadroom int64
	// CacheBytes caps the result cache (0 disables caching).
	// Default 64 MiB; set -1 to disable explicitly.
	CacheBytes int64
	// MaxBodyBytes caps uploaded graph bodies.  Default 1 GiB.
	MaxBodyBytes int64
	// MaxWorkers caps the workers= query parameter; larger requests are
	// clamped to it (negative ones are rejected with 400).  The parallel
	// pool sizes per-worker scratch and result slices from this number
	// before any of it is charged to the governor, so leaving it
	// unbounded would let a single request allocate memory the admission
	// budget never sees.  Default runtime.GOMAXPROCS(0) — more workers
	// than cores cannot go faster anyway.
	MaxWorkers int
	// RetryAfter is the Retry-After hint returned with 503s.
	// Default 2s.
	RetryAfter time.Duration
}

// defaults fills the zero fields.
func (c Config) defaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.QueueWait == 0 {
		c.QueueWait = 30 * time.Second
	}
	if c.QueryHeadroom == 0 {
		c.QueryHeadroom = 64 << 20
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	} else if c.CacheBytes < 0 {
		c.CacheBytes = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 30
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 2 * time.Second
	}
	return c
}

// Server is the query service: an http.Handler plus the shared
// governor, registry, admission controller, and result cache.
type Server struct {
	cfg   Config
	gov   *membudget.Governor
	reg   *Registry
	adm   *Admission
	cache *Cache
	mux   *http.ServeMux

	started time.Time
	active  atomic.Int64 // queries currently executing (admitted, not cached)
	queries atomic.Int64 // queries served, cached or not
	// residual accumulates bytes a query's run failed to release before
	// its reservation was closed — always 0 unless a backend violates
	// the budgetpair discipline; surfaced in /healthz as a bug canary.
	residual atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.defaults()
	gov := membudget.New(cfg.Budget)
	s := &Server{
		cfg:     cfg,
		gov:     gov,
		reg:     NewRegistry(gov),
		adm:     NewAdmission(gov, cfg.QueueDepth, cfg.QueueWait),
		cache:   NewCache(cfg.CacheBytes),
		started: time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graphs", s.handleLoadGraph)
	mux.HandleFunc("GET /graphs", s.handleListGraphs)
	mux.HandleFunc("GET /graphs/{fp}", s.handleGetGraph)
	mux.HandleFunc("DELETE /graphs/{fp}", s.handleDeleteGraph)
	mux.HandleFunc("GET /graphs/{fp}/cliques", s.handleCliques)
	mux.HandleFunc("POST /graphs/{fp}/cliques", s.handleCliques)
	mux.HandleFunc("GET /graphs/{fp}/maxclique", s.handleMaxClique)
	mux.HandleFunc("GET /graphs/{fp}/paracliques", s.handleParacliques)
	mux.HandleFunc("POST /graphs/{fp}/paracliques", s.handleParacliques)
	mux.HandleFunc("POST /pathways", s.handlePathways)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the service routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Governor exposes the shared governor (tests and the daemon's
// shutdown-time accounting check).
func (s *Server) Governor() *membudget.Governor { return s.gov }

// Registry exposes the graph registry (the daemon preloads graphs
// through it at startup).
func (s *Server) Registry() *Registry { return s.reg }

// Stats is the /healthz payload.
type Stats struct {
	Status        string        `json:"status"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Graphs        int           `json:"graphs"`
	Active        int64         `json:"active_queries"`
	Queued        int           `json:"queued_queries"`
	Queries       int64         `json:"queries_served"`
	ResidualBytes int64         `json:"residual_bytes"`
	Governor      GovernorStats `json:"governor"`
	Cache         CacheStats    `json:"cache"`
}

// GovernorStats is the shared governor's view in /healthz.
type GovernorStats struct {
	Budget   int64 `json:"budget"`
	Used     int64 `json:"used"`
	Peak     int64 `json:"peak"`
	Reserved int64 `json:"reserved"`
}

// Snapshot assembles the current Stats.
func (s *Server) Snapshot() Stats {
	return Stats{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Graphs:        s.reg.Len(),
		Active:        s.active.Load(),
		Queued:        s.adm.Queued(),
		Queries:       s.queries.Load(),
		ResidualBytes: s.residual.Load(),
		Governor: GovernorStats{
			Budget:   s.gov.Budget(),
			Used:     s.gov.Used(),
			Peak:     s.gov.Peak(),
			Reserved: s.gov.Reserved(),
		},
		Cache: s.cache.Stats(),
	}
}
