// Command svgicd serves SVGIC solves over HTTP: the network front door of
// the batch engine, with bounded-in-flight admission control (429 +
// Retry-After under overload), per-request deadlines, per-request algorithm
// selection from the solver registry ("algo"/"params" request fields, GET
// /v1/algorithms for discovery), the engine's request coalescing keyed on
// (instance, solver) for every solve and session create, and graceful drain
// on SIGINT/SIGTERM.
//
// Serve:
//
//	svgicd -addr :8080 -workers 8 -cache 512 -algo avgd
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/algorithms
//	curl -s -XPOST localhost:8080/v1/solve?timeout=500ms -d @store.json
//	curl -s -XPOST localhost:8080/v1/solve -d '{"algo":"per", ...instance...}'
//	curl -s -XPOST localhost:8080/v1/solve/batch -d @stores.json
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics        # Prometheus text format
//
// With -slo, the daemon tracks declarative latency objectives over sliding
// t-digest windows and (unless -no-adaptive-admission) walks a
// degrade-then-shed ladder while an objective burns: expensive algorithms
// (ip, sdp) are rerouted to -slo-degrade-algo with "degraded":true in the
// response, and under sustained burn the effective in-flight cap tightens.
// See docs/OBSERVABILITY.md for the grammar and the burn-rate model:
//
//	svgicd -slo "p99 solve < 250ms over 5m" -slo-degrade-algo avgd
//	svgicd -slo "p99 solve < 250ms over 5m, p50 repair < 50ms over 1m"
//
// With -data-dir, live sessions are durable: each gets a write-ahead event
// log plus periodic snapshots (-snapshot-every bounds the recovery tail,
// -fsync picks always|interval|off), and a restart recovers every session
// at its exact pre-crash (version, value, configuration):
//
//	svgicd -data-dir /var/lib/svgic -fsync always -snapshot-every 256
//
// The daemon only serves. cmd/svgicload is its load generator: it launches
// this binary as a child, drives it, and requires a clean drain on SIGTERM.
// Its crash mode SIGKILLs the child mid-churn, restarts it on the same
// -data-dir and verifies every recovered session against an offline replay
// (what `make crash-smoke` runs in CI):
//
//	svgicload -requests 300 -dup-frac 0.5 -conc 8 ./svgicd -workers 2
//
// The API speaks the core.InstanceJSON interchange schema (see the svgic
// CLI and EXPERIMENTS.md); request bodies are decoded strictly — unknown
// fields are a 400, never a silent drop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	svgic "github.com/svgic/svgic"
	"github.com/svgic/svgic/internal/daemon"
	"github.com/svgic/svgic/internal/server"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/store"
	"github.com/svgic/svgic/internal/telemetry"
)

func main() {
	cfg := daemon.Flags(flag.CommandLine)
	flag.Parse()
	if err := serve(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "svgicd:", err)
		os.Exit(1)
	}
}

// app is the assembled serving stack. Shutdown order matters and is the
// reverse of construction: HTTP drain, then the manager (flushes its
// persist outboxes), then the store (drains writer shards, fsyncs, closes
// logs), then the engine.
type app struct {
	eng *svgic.Engine
	st  *store.Store // nil without -data-dir
	mgr *session.Manager
	srv *server.Server
}

// close tears the stack down in dependency order (idempotent components).
func (a *app) close() {
	a.mgr.Close()
	if a.st != nil {
		a.st.Close()
	}
	a.eng.Close()
}

// newApp builds the engine (+ optional durable store) + session manager +
// server stack from flags. With -data-dir, every persisted session is
// recovered into the manager before the server takes a request.
func newApp(cfg *daemon.Config) (*app, error) {
	newSolver, params, err := cfg.Solver()
	if err != nil {
		return nil, err
	}
	slos, err := telemetry.ParseObjectives(cfg.SLO)
	if err != nil {
		return nil, err
	}
	// One tracker is shared by every layer: the server records per-route
	// request latency, the engine per-algorithm solve wall time and the
	// session manager drift-repair cycles — so -slo objectives can target
	// any of them by series name.
	tel := telemetry.NewTracker(telemetry.TrackerOptions{})
	eng := svgic.NewEngine(svgic.EngineOptions{
		Workers:   cfg.Workers,
		CacheSize: cfg.Cache,
		NewSolver: newSolver,
		SolveObserver: func(algo string, wall time.Duration) {
			tel.Record("algo:"+algo, wall)
		},
	})
	var st *store.Store
	if cfg.DataDir != "" {
		policy, err := store.ParseSyncPolicy(cfg.Fsync)
		if err != nil {
			eng.Close()
			return nil, err
		}
		backend, err := store.NewFS(cfg.DataDir)
		if err != nil {
			eng.Close()
			return nil, err
		}
		st, err = store.Open(store.Options{
			Backend:      backend,
			Sync:         policy,
			SyncInterval: cfg.FsyncInterval,
		})
		if err != nil {
			eng.Close()
			return nil, err
		}
	}
	mgr, err := session.NewManager(session.Options{
		Engine:         eng,
		MaxSessions:    cfg.MaxSessions,
		TTL:            cfg.SessionTTL,
		RepairInterval: cfg.RepairInterval,
		RepairMargin:   cfg.RepairMargin,
		Persister:      persisterOrNil(st),
		SnapshotEvery:  cfg.SnapshotEvery,
		RepairObserver: func(d time.Duration) { tel.Record("repair", d) },
	})
	if err != nil {
		if st != nil {
			st.Close()
		}
		eng.Close()
		return nil, err
	}
	srv, err := server.New(server.Options{
		Engine: eng,
		// Same name AND same flag-derived params as the engine default, so a
		// request saying {"algo": "<default>"} resolves the identical solver
		// (and shares cache entries with bare requests).
		DefaultAlgo:    cfg.Algo,
		DefaultParams:  params,
		MaxInFlight:    cfg.MaxInFlight,
		DefaultTimeout: cfg.Timeout,
		MaxTimeout:     cfg.MaxTimeout,
		MaxBatch:       cfg.MaxBatch,
		Sessions:       mgr,
		Store:          st,

		Telemetry:           tel,
		SLOs:                slos,
		DegradeAlgo:         cfg.SLODegradeAlgo,
		NoAdaptiveAdmission: cfg.NoAdaptiveAdmission,
	})
	if err != nil {
		mgr.Close()
		if st != nil {
			st.Close()
		}
		eng.Close()
		return nil, err
	}
	return &app{eng: eng, st: st, mgr: mgr, srv: srv}, nil
}

// persisterOrNil avoids the classic typed-nil-in-interface trap: a nil
// *store.Store stuffed into the Persister interface would be non-nil to the
// manager and panic on first use.
func persisterOrNil(st *store.Store) session.Persister {
	if st == nil {
		return nil
	}
	return st
}

func serve(cfg *daemon.Config) error {
	a, err := newApp(cfg)
	if err != nil {
		return err
	}
	defer a.close()

	httpSrv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           a.srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	// Contract: ListenAndServe returns when the graceful-shutdown path below
	// calls httpSrv.Shutdown (or Close on timeout) — net/http's lifecycle,
	// invisible to the WaitGroup / done-channel model; errCh is buffered so
	// the send never blocks the exit.
	//lint:ignore goleak acceptor terminated by httpSrv.Shutdown/Close in the drain path below
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "svgicd: serving on %s (workers=%d cache=%d algo=%s max-inflight=%d max-sessions=%d repair=%s)\n",
		cfg.Addr, a.eng.Stats().Workers, cfg.Cache, cfg.Algo, a.srv.StatsSnapshot().Server.MaxInFlight,
		cfg.MaxSessions, cfg.RepairInterval)
	if cfg.SLO != "" {
		fmt.Fprintf(os.Stderr, "svgicd: latency objectives %q (degrade-algo=%s adaptive-admission=%v)\n",
			cfg.SLO, cfg.SLODegradeAlgo, !cfg.NoAdaptiveAdmission)
	}
	if a.st != nil {
		st := a.st.Stats()
		fmt.Fprintf(os.Stderr, "svgicd: durable store at %s (fsync=%s snapshot-every=%d): recovered %d session(s), replayed %d WAL record(s)/%d event(s), torn tails=%d, errors=%d\n",
			cfg.DataDir, st.Policy, cfg.SnapshotEvery, st.RecoveredSessions, st.ReplayedRecords, st.ReplayedEvents, st.TornTails, st.RecoveryErrors)
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, drain in-flight solves, then (via
	// the deferred close) flush the session manager into the store, drain
	// and fsync the store, and release the engine's worker pool.
	fmt.Fprintln(os.Stderr, "svgicd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := a.srv.Shutdown(drainCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "svgicd: drained cleanly")
	return nil
}
