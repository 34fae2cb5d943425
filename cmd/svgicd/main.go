// Command svgicd serves SVGIC solves over HTTP: the network front door of
// the batch engine, with bounded-in-flight admission control (429 +
// Retry-After under overload), per-request deadlines, per-request algorithm
// selection from the solver registry ("algo"/"params" request fields, GET
// /v1/algorithms for discovery), request coalescing keyed on (instance,
// solver) and graceful drain on SIGINT/SIGTERM.
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
// The crash contract is testable end to end: `-loadgen -dynamic -crash`
// spawns a child svgicd, SIGKILLs it mid-churn, restarts it on the same
// directory and verifies every recovered session against an offline replay
// (what `make crash-smoke` runs in CI).
//
// Load-generate (reports throughput, latency percentiles, cache/coalesce
// hit rates; exits non-zero on any status other than 200/429). In loadgen
// mode -algo accepts a comma-separated list and the generated requests cycle
// through it, exercising the per-algorithm serving path:
//
//	svgicd -loadgen -requests 300 -dup-frac 0.5 -conc 8
//	svgicd -loadgen -algo avgd,per,avg -requests 600
//	svgicd -loadgen -target http://localhost:8080 -rps 200 -requests 1000
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
	"strings"
	"syscall"
	"time"

	svgic "github.com/svgic/svgic"
	"github.com/svgic/svgic/internal/server"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/store"
	"github.com/svgic/svgic/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "svgicd:", err)
		os.Exit(1)
	}
}

type config struct {
	addr        string
	workers     int
	cache       int
	algo        string
	seed        uint64
	sizeCap     int
	timeout     time.Duration
	maxTimeout  time.Duration
	maxInFlight int
	maxBatch    int

	slo                 string
	sloDegradeAlgo      string
	noAdaptiveAdmission bool

	maxSessions    int
	sessionShards  int
	sessionTTL     time.Duration
	repairInterval time.Duration
	repairMargin   float64

	dataDir       string
	fsync         string
	fsyncInterval time.Duration
	snapshotEvery int

	loadgen          bool
	target           string
	requests         int
	rps              int
	dupFrac          float64
	conc             int
	assertSLODegrade bool

	dynamic    bool
	sessions   int
	eventBatch int
	trace      string
	crash      bool
}

func run() error {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.workers, "workers", 0, "solver workers (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.cache, "cache", svgic.DefaultEngineCacheSize, "result cache size (negative disables)")
	flag.StringVar(&cfg.algo, "algo", "avgd",
		"default solver: "+strings.Join(svgic.SolverNames(), "|")+" (loadgen: comma-separated list to mix)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed (solvers with a seed parameter)")
	flag.IntVar(&cfg.sizeCap, "size-cap", 0, "SVGIC-ST subgroup size cap M (0 = uncapped)")
	flag.DurationVar(&cfg.timeout, "timeout", server.DefaultTimeout, "default per-request solve deadline")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", server.DefaultMaxTimeout, "cap on client-requested timeouts")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 0, "admission limit (0 = 4×workers); excess load is shed with 429")
	flag.IntVar(&cfg.maxBatch, "max-batch", server.DefaultMaxBatch, "max instances per batch request")

	flag.StringVar(&cfg.slo, "slo", "",
		`latency objectives, comma-separated "p<pct> <series> < <duration> over <duration>" (e.g. "p99 solve < 250ms over 5m"); series are routes (solve, batch, evaluate, session_create, session_events, session_get), per-algorithm solves (algo:<NAME>) or drift repair (repair). Empty = measure only, no objectives`)
	flag.StringVar(&cfg.sloDegradeAlgo, "slo-degrade-algo", "avgd",
		"cheap fallback algorithm expensive requests (ip, sdp) are rerouted to while an objective is burning")
	flag.BoolVar(&cfg.noAdaptiveAdmission, "no-adaptive-admission", false,
		"report SLO burn rates in /v1/stats and /metrics but never degrade or shed on them")

	flag.IntVar(&cfg.maxSessions, "max-sessions", session.DefaultMaxSessions,
		"live-session admission bound; creates beyond it are shed with 429")
	flag.IntVar(&cfg.sessionShards, "session-shards", 0,
		"hash-partitioned session shard count: each shard is an independent lock domain with its own eviction/repair goroutine (0 = GOMAXPROCS, 1 = single-lock)")
	flag.DurationVar(&cfg.sessionTTL, "session-ttl", 10*time.Minute,
		"evict live sessions idle longer than this (0 = never)")
	flag.DurationVar(&cfg.repairInterval, "repair-interval", 0,
		"drift repair: periodically re-solve each live session through the engine and swap in the result when it beats the incremental configuration (0 = off)")
	flag.Float64Var(&cfg.repairMargin, "repair-margin", session.DefaultRepairMargin,
		"drift repair: relative improvement a re-solve must show to be swapped in (0 = the 0.01 default; negative = swap on any strict improvement)")

	flag.StringVar(&cfg.dataDir, "data-dir", "",
		"durable session store directory: live sessions get a write-ahead log + snapshots there and are recovered on restart (empty = in-memory only)")
	flag.StringVar(&cfg.fsync, "fsync", "interval",
		"WAL fsync policy: always (every record durable before the writer moves on) | interval (bounded loss window) | off (OS decides)")
	flag.DurationVar(&cfg.fsyncInterval, "fsync-interval", store.DefaultSyncInterval,
		"dirty-log fsync cadence under -fsync interval")
	flag.IntVar(&cfg.snapshotEvery, "snapshot-every", session.DefaultSnapshotEvery,
		"cut a session snapshot (and compact its WAL) every N applied events; bounds recovery replay to the post-snapshot tail")

	flag.BoolVar(&cfg.loadgen, "loadgen", false, "run the load generator instead of serving")
	flag.StringVar(&cfg.target, "target", "", "loadgen target base URL (empty = spin up an in-process server)")
	flag.IntVar(&cfg.requests, "requests", 300, "loadgen: total requests (dynamic mode: total events)")
	flag.IntVar(&cfg.rps, "rps", 0, "loadgen: request rate (0 = unthrottled)")
	flag.Float64Var(&cfg.dupFrac, "dup-frac", 0.5, "loadgen: fraction of requests that repeat the hot instance")
	flag.IntVar(&cfg.conc, "conc", 8, "loadgen: concurrent clients")
	flag.BoolVar(&cfg.assertSLODegrade, "assert-slo-degrade", false,
		"loadgen: fail unless the run drove the server's SLO controller to degrade at least one request without flapping (what `make slo-smoke` asserts)")

	flag.BoolVar(&cfg.dynamic, "dynamic", false, "loadgen: drive live-session churn against /v1/sessions instead of /v1/solve")
	flag.IntVar(&cfg.sessions, "sessions", 4, "dynamic loadgen: concurrent live sessions")
	flag.IntVar(&cfg.eventBatch, "event-batch", 4, "dynamic loadgen: events per POST")
	flag.StringVar(&cfg.trace, "trace", "", "dynamic loadgen: replay a datagen -events trace file into every session (empty = generate churn)")
	flag.BoolVar(&cfg.crash, "crash", false,
		"dynamic loadgen: kill/restart/verify mode — spawn a child svgicd on -data-dir, SIGKILL it mid-churn, restart it, and assert every recovered session matches an offline replay (requires -data-dir)")
	flag.Parse()

	if cfg.loadgen && cfg.dynamic && cfg.crash {
		return runCrashLoadgen(cfg)
	}
	if cfg.loadgen && cfg.dynamic {
		return runDynamicLoadgen(cfg)
	}
	if cfg.loadgen {
		return runLoadgen(cfg)
	}
	return serve(cfg)
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
func newApp(cfg config) (*app, error) {
	algo := cfg.algo
	if i := strings.IndexByte(algo, ','); i >= 0 {
		algo = algo[:i] // loadgen mixes; the in-process server defaults to the first
	}
	newSolver, params, err := pickSolver(algo, cfg)
	if err != nil {
		return nil, err
	}
	slos, err := telemetry.ParseObjectives(cfg.slo)
	if err != nil {
		return nil, err
	}
	// One tracker is shared by every layer: the server records per-route
	// request latency, the engine per-algorithm solve wall time and the
	// session manager drift-repair cycles — so -slo objectives can target
	// any of them by series name.
	tel := telemetry.NewTracker(telemetry.TrackerOptions{})
	eng := svgic.NewEngine(svgic.EngineOptions{
		Workers:   cfg.workers,
		CacheSize: cfg.cache,
		NewSolver: newSolver,
		SolveObserver: func(algo string, wall time.Duration) {
			tel.Record("algo:"+algo, wall)
		},
	})
	var st *store.Store
	if cfg.dataDir != "" {
		policy, err := store.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			eng.Close()
			return nil, err
		}
		backend, err := store.NewFS(cfg.dataDir)
		if err != nil {
			eng.Close()
			return nil, err
		}
		st, err = store.Open(store.Options{
			Backend:      backend,
			Sync:         policy,
			SyncInterval: cfg.fsyncInterval,
			// Align the persister's writer shards with the session shards:
			// outbox dispatch stays ordered per session but parallel across
			// shards, so the durable path scales with the serving path.
			Shards: cfg.sessionShards,
		})
		if err != nil {
			eng.Close()
			return nil, err
		}
	}
	mgr, err := session.NewManager(session.Options{
		Engine:         eng,
		Shards:         cfg.sessionShards,
		MaxSessions:    cfg.maxSessions,
		TTL:            cfg.sessionTTL,
		RepairInterval: cfg.repairInterval,
		RepairMargin:   cfg.repairMargin,
		Persister:      persisterOrNil(st),
		SnapshotEvery:  cfg.snapshotEvery,
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
		DefaultAlgo:    algo,
		DefaultParams:  params,
		MaxInFlight:    cfg.maxInFlight,
		DefaultTimeout: cfg.timeout,
		MaxTimeout:     cfg.maxTimeout,
		MaxBatch:       cfg.maxBatch,
		Sessions:       mgr,
		Store:          st,

		Telemetry:           tel,
		SLOs:                slos,
		DegradeAlgo:         cfg.sloDegradeAlgo,
		NoAdaptiveAdmission: cfg.noAdaptiveAdmission,
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

// pickSolver resolves the default solver from the registry, mapping the
// daemon's flags onto whichever parameters the solver's schema declares,
// and returns the parameters too (the server needs them so explicit
// {"algo": default} requests resolve identically). The flag help and the
// unknown-algorithm error are both derived from the registry, so a newly
// registered solver is reachable without touching this file. A -size-cap
// the solver has no parameter for is an error, as it is for a capped
// session: the solver would ignore the cap and serve oversized subgroups.
func pickSolver(algo string, cfg config) (func() svgic.Solver, svgic.Params, error) {
	spec, ok := svgic.LookupSolver(algo)
	if !ok {
		return nil, nil, fmt.Errorf("unknown algorithm %q (want one of: %s)",
			algo, strings.Join(svgic.SolverNames(), ", "))
	}
	params := svgic.Params{}
	for _, p := range spec.Params {
		switch p.Name {
		case "seed":
			params["seed"] = cfg.seed
		case "sizeCap":
			if cfg.sizeCap > 0 {
				params["sizeCap"] = cfg.sizeCap
			}
		}
	}
	if _, capped := params["sizeCap"]; cfg.sizeCap > 0 && !capped {
		return nil, nil, fmt.Errorf("algorithm %q has no sizeCap parameter: it cannot solve the capped problem -size-cap=%d asks for", spec.Name, cfg.sizeCap)
	}
	// Validate once up front so a bad flag combination fails at startup, not
	// on the first request.
	if _, err := svgic.NewSolver(spec.Name, params); err != nil {
		return nil, nil, err
	}
	return func() svgic.Solver {
		s, err := svgic.NewSolver(spec.Name, params)
		if err != nil {
			panic(err) // validated above; cannot fail
		}
		return s
	}, params, nil
}

func serve(cfg config) error {
	if strings.ContainsRune(cfg.algo, ',') {
		return fmt.Errorf("-algo %q: comma-separated lists are loadgen-only; serve mode takes one default algorithm", cfg.algo)
	}
	a, err := newApp(cfg)
	if err != nil {
		return err
	}
	defer a.close()

	httpSrv := &http.Server{
		Addr:              cfg.addr,
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
	fmt.Fprintf(os.Stderr, "svgicd: serving on %s (workers=%d cache=%d algo=%s max-inflight=%d max-sessions=%d session-shards=%d repair=%s)\n",
		cfg.addr, a.eng.Stats().Workers, cfg.cache, cfg.algo, a.srv.StatsSnapshot().Server.MaxInFlight,
		cfg.maxSessions, a.mgr.Shards(), cfg.repairInterval)
	if cfg.slo != "" {
		fmt.Fprintf(os.Stderr, "svgicd: latency objectives %q (degrade-algo=%s adaptive-admission=%v)\n",
			cfg.slo, cfg.sloDegradeAlgo, !cfg.noAdaptiveAdmission)
	}
	if a.st != nil {
		st := a.st.Stats()
		fmt.Fprintf(os.Stderr, "svgicd: durable store at %s (fsync=%s snapshot-every=%d): recovered %d session(s), replayed %d WAL record(s)/%d event(s), torn tails=%d, errors=%d\n",
			cfg.dataDir, st.Policy, cfg.snapshotEvery, st.RecoveredSessions, st.ReplayedRecords, st.ReplayedEvents, st.TornTails, st.RecoveryErrors)
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
