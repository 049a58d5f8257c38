// Command cliqued is the multi-tenant clique query daemon: it serves
// the repro enumeration facade over HTTP/JSON to many concurrent
// clients under one shared memory budget.
//
// Usage:
//
//	cliqued [flags] [name=path ...]
//
// Each positional argument preloads a graph file into the registry at
// startup (the name= prefix is optional); further graphs are loaded at
// runtime with POST /graphs.  The daemon prints one line —
// "cliqued: listening on ADDR" — once the listener is up (with -addr
// :0 the kernel-chosen port appears there), and shuts down gracefully
// on SIGINT/SIGTERM, draining in-flight streams.
//
// The API (see README "Running the query service"):
//
//	POST   /graphs?name=&format=&rep=   load the request body as a graph
//	GET    /graphs                      list loaded graphs
//	GET    /graphs/{fp}                 one graph's info
//	DELETE /graphs/{fp}                 evict a graph
//	GET    /graphs/{fp}/cliques        stream maximal cliques (NDJSON or text)
//	GET    /graphs/{fp}/maxclique      one maximum clique
//	GET    /graphs/{fp}/paracliques    paraclique decomposition
//	POST   /pathways                    elementary flux modes of a network
//	GET    /healthz                     governor / cache / queue snapshot
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/service"
)

func main() {
	// A cliqued binary spawned by a distributed coordinator serves as an
	// enumeration worker instead of a daemon: the environment marker
	// routes it into the wire-protocol loop before flag parsing (the
	// -worker flag is the human-visible argv marker).
	if dist.WorkerEnabled() {
		dist.WorkerMain()
	}
	addr := flag.String("addr", "127.0.0.1:7421", "listen address (use :0 for a kernel-chosen port)")
	budget := flag.Int64("mem-budget", 0, "server-wide memory budget in bytes shared by loaded graphs and running queries (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 16, "queries allowed to wait for memory headroom before new ones are shed with 503")
	queueWait := flag.Duration("queue-wait", 30*time.Second, "how long a queued query waits for headroom before it is shed")
	headroom := flag.Int64("query-headroom", 64<<20, "default per-query working-memory reservation above the graph's adjacency bytes")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache capacity in bytes (0 disables caching)")
	maxBody := flag.Int64("max-body", 1<<30, "largest accepted graph upload in bytes")
	maxWorkers := flag.Int("max-workers", 0, "cap on the workers= query parameter; larger requests are clamped (0 = GOMAXPROCS)")
	flag.Bool("worker", false, "serve as a distributed enumeration worker over stdin/stdout (activated by the coordinator's environment; this flag is the argv marker)")
	flag.Parse()

	if err := run(os.Stdout, *addr, service.Config{
		Budget:        *budget,
		QueueDepth:    *queueDepth,
		QueueWait:     *queueWait,
		QueryHeadroom: *headroom,
		CacheBytes:    cacheOrDisabled(*cacheBytes),
		MaxBodyBytes:  *maxBody,
		MaxWorkers:    *maxWorkers,
	}, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "cliqued:", err)
		os.Exit(1)
	}
}

// cacheOrDisabled maps the flag's 0 (off) to the Config's explicit -1
// (the Config zero value means "default size").
func cacheOrDisabled(n int64) int64 {
	if n == 0 {
		return -1
	}
	return n
}

// run serves until SIGINT/SIGTERM, then drains; out receives the
// "listening on" and "loaded" lines.
func run(out io.Writer, addr string, cfg service.Config, preload []string) error {
	srv := service.New(cfg)
	for _, arg := range preload {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			name, path = arg, arg
		}
		if err := loadFile(out, srv, name, path); err != nil {
			return err
		}
	}

	// The handler goes in before the address is announced: a supervisor
	// may send SIGTERM the instant it reads the line below, and that must
	// drain, not kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cliqued: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight streams finish.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loadFile preloads one graph into the registry (format auto-detected,
// exactly as POST /graphs does for uploads).
func loadFile(out io.Writer, srv *service.Server, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	g, err := repro.ReadGraph(f, repro.FormatAuto, repro.Auto)
	cerr := f.Close()
	if err != nil {
		return fmt.Errorf("load %s: %w", path, err)
	}
	if cerr != nil {
		return fmt.Errorf("load %s: %w", path, cerr)
	}
	e, _, err := srv.Registry().Add(name, g)
	if err != nil {
		return fmt.Errorf("load %s: %w", path, err)
	}
	fmt.Fprintf(out, "cliqued: loaded %s as %s (n=%d m=%d)\n", path, e.Fingerprint, g.N(), g.M())
	return nil
}
