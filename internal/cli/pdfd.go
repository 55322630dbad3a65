package cli

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/store"
)

// PDFD implements cmd/pdfd: the HTTP job server over the enrichment
// engine. It blocks serving until the listener fails or a SIGINT /
// SIGTERM arrives; on a signal it stops accepting work, lets running
// jobs drain for up to -drain, and leaves anything unfinished in the
// journal (if one is configured) to be replayed by the next start.
//
// All daemon output is structured logging (-log-format text|json,
// -log-level debug..error) on stdout: the engine's job lifecycle
// records, the server's per-request access log, and the daemon's own
// start/drain records share one stream, correlated by job_id and
// request_id. -debug-addr serves net/http/pprof on a second listener,
// kept off the public API address.
func PDFD(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("pdfd", stderr)
	var (
		addr       = fs.String("addr", ":8344", "listen address")
		debugAddr  = fs.String("debug-addr", "", "listen address of the pprof debug server (empty = disabled)")
		logFormat  = fs.String("log-format", "text", "log output format: text or json")
		logLevel   = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		workers    = fs.Int("workers", 0, "job worker pool size (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 64, "maximum queued jobs (submissions beyond it get 503)")
		cacheSize  = fs.Int("cache", 128, "result cache entries")
		timeout    = fs.Duration("timeout", 10*time.Minute, "default per-job deadline (0 = none)")
		shed       = fs.Int("shed-watermark", 0, "queue depth at which submissions are shed with 503 before the queue is full (0 = disabled)")
		journalDir = fs.String("journal", "", "directory of the durable job journal; queued and running jobs survive a crash and replay on restart (empty = no journal)")
		storeDir   = fs.String("store", "", "directory of the durable result store; completed results survive a crash and serve cache hits after restart (empty = memory cache only)")
		storeSize  = fs.Int("store-entries", store.DefaultMaxEntries, "durable store entry cap before LRU eviction (negative = unbounded)")
		storeBytes = fs.Int64("store-bytes", store.DefaultMaxBytes, "durable store payload byte cap before LRU eviction (negative = unbounded)")
		drain      = fs.Duration("drain", 30*time.Second, "graceful shutdown: how long running jobs may finish after a signal")

		tenantsFile = fs.String("tenants", "", `tenant roster JSON file ({"tenants":[{"name":...,"key":...,"weight":...,"queue_depth":...,"max_inflight":...}]}); enables per-tenant fair scheduling, quotas and (with keys) bearer auth`)

		coordinator = fs.Bool("coordinator", false, "run as a cluster coordinator fronting -backends instead of a local engine")
		backendsArg = fs.String("backends", "", "coordinator: comma-separated backends, each name=url or a bare url (auto-named b0, b1, ...)")
		healthIvl   = fs.Duration("health-interval", 2*time.Second, "coordinator: backend health probe interval")
		replication = fs.Int("replication", 2, "coordinator: backends each completed result is stored on (needs backends running with -store; 1 = no replication)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log := obs.NewLogger(stdout, *logFormat, *logLevel)
	var tenants []engine.TenantConfig
	if *tenantsFile != "" {
		f, err := os.Open(*tenantsFile)
		if err != nil {
			return fmt.Errorf("-tenants: %w", err)
		}
		tenants, err = engine.ParseTenants(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("-tenants %s: %w", *tenantsFile, err)
		}
		log.Info("tenant roster loaded", "file", *tenantsFile, "tenants", len(tenants))
	}
	if *coordinator {
		return runCoordinator(*addr, *debugAddr, *backendsArg, *healthIvl, *replication, tenants, log)
	}
	cfg := engine.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		Tenants:        tenants,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		ShedWatermark:  *shed,
		Logger:         log,
	}
	var replay []journal.Record
	if *journalDir != "" {
		jlog, recs, err := journal.Open(*journalDir)
		if err != nil {
			return err
		}
		defer jlog.Close()
		cfg.Journal = jlog
		replay = recs
	}
	if *storeDir != "" {
		st, err := store.Open(store.Config{
			Dir:        *storeDir,
			MaxEntries: *storeSize,
			MaxBytes:   *storeBytes,
			Logger:     log,
		})
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Store = st
	}
	eng := engine.New(cfg)
	if *journalDir != "" {
		n, err := eng.Restore(replay)
		if err != nil {
			eng.Close()
			return fmt.Errorf("replaying journal: %w", err)
		}
		log.Info("journal replayed", "dir", *journalDir, "jobs", n)
	}

	handler := engine.NewServerWith(eng, engine.ServerConfig{Logger: log})
	return serve(log, *addr, *debugAddr, handler, nil, eng.Close, func(srv *http.Server, sig os.Signal) {
		log.Info("shutdown signal, draining running jobs", "signal", sig.String(), "drain", drain.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		srv.Shutdown(ctx)
		err := eng.Shutdown(ctx)
		switch {
		case err == nil:
			log.Info("drained cleanly")
		case *journalDir != "":
			log.Warn("drain incomplete; unfinished jobs stay journaled for replay", "err", err)
		default:
			log.Warn("drain incomplete; unfinished jobs canceled", "err", err)
		}
	})
}

// serve is the daemon loop of both pdfd modes: it serves handler on
// addr, and the pprof debug server on debugAddr if set, until the
// listener fails or a SIGINT / SIGTERM arrives. listenAttrs extend the
// start banner. closeNow releases the mode's state when serving cannot
// start or stops on an error, which serve then returns; on a signal,
// shutdown drains the still-running API server and the mode's state,
// and serve returns nil.
func serve(log *slog.Logger, addr, debugAddr string, handler http.Handler, listenAttrs []any,
	closeNow func(), shutdown func(srv *http.Server, sig os.Signal)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		closeNow()
		return err
	}
	log.Info("pdfd listening", append([]any{"addr", ln.Addr().String()}, listenAttrs...)...)
	srv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			srv.Close()
			closeNow()
			return fmt.Errorf("debug listener: %w", err)
		}
		dbgSrv := &http.Server{Handler: debugMux()}
		log.Info("pprof debug server listening", "addr", dln.Addr().String())
		go func() {
			// The debug server is best-effort; its failure does not
			// take the daemon down.
			if err := dbgSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Warn("pprof debug server stopped", "err", err)
			}
		}()
		defer dbgSrv.Close()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case err := <-serveErr:
		closeNow()
		return err
	case sig := <-sigCh:
		shutdown(srv, sig)
		return nil
	}
}

// runCoordinator is pdfd's -coordinator mode: no local engine, just
// the cluster coordinator routing the /v1 API across -backends by
// consistent hashing on each job's SpecDigest. It blocks until the
// listener fails or a SIGINT / SIGTERM arrives; shutdown stops the
// listener, then the health loops.
func runCoordinator(addr, debugAddr, backendsArg string, healthIvl time.Duration, replication int, tenants []engine.TenantConfig, log *slog.Logger) error {
	confs, err := parseBackends(backendsArg)
	if err != nil {
		return err
	}
	coord, err := cluster.New(cluster.Config{
		Backends:          confs,
		HealthInterval:    healthIvl,
		ReplicationFactor: replication,
		Tenants:           tenants,
		Logger:            log,
	})
	if err != nil {
		return err
	}

	return serve(log, addr, debugAddr, cluster.NewServer(coord), []any{"mode", "coordinator", "backends", len(confs)},
		coord.Close, func(srv *http.Server, sig os.Signal) {
			// The coordinator holds no job state of its own — in-flight
			// proxied requests finish with the server drain, the backends
			// keep running.
			log.Info("shutdown signal, stopping coordinator", "signal", sig.String())
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			coord.Close()
			log.Info("coordinator stopped")
		})
}

// parseBackends parses the -backends flag: comma-separated entries,
// each "name=url" or a bare URL (auto-named b0, b1, ... by position).
func parseBackends(s string) ([]cluster.BackendConf, error) {
	var out []cluster.BackendConf
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, found := strings.Cut(part, "=")
		if found && !strings.ContainsAny(name, ":/") {
			out = append(out, cluster.BackendConf{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)})
		} else {
			// A bare URL (any "=" it carries sits past ":" or "/").
			out = append(out, cluster.BackendConf{Name: fmt.Sprintf("b%d", i), URL: part})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pdfd: -coordinator needs -backends (name=url or url, comma-separated)")
	}
	return out, nil
}

// debugMux is the pprof surface of -debug-addr. Registered explicitly
// (not via the pprof init side effect on http.DefaultServeMux) so the
// profiling handlers never leak onto the public API listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
