// Package server implements svgicd's HTTP serving layer over the engine: the
// JSON API (core.InstanceJSON in, solutions and utility reports out) plus
// the serving-path machinery a network front door needs —
//
//   - admission control: a bounded in-flight limit that sheds excess load
//     with 429 + Retry-After instead of queueing unboundedly;
//   - per-request deadlines: a `timeout` query parameter (capped by the
//     server maximum) wired into the context the engine and every solver
//     honour, mapped to 504 on expiry and 499 when the client goes away;
//   - per-request algorithm selection: an optional "algo" + "params" pair on
//     solve requests resolves any registered solver (GET /v1/algorithms
//     lists them with parameter schemas); cache and coalescing keys pair the
//     instance fingerprint with the solver identity, so AVG and AVG-D
//     results never alias;
//   - request coalescing: concurrent identical (instance, solver) requests
//     run the solver once and fan the result out as deep copies — the
//     flash-crowd case the result cache cannot help with, because nothing is
//     cached until the first solve completes;
//   - graceful shutdown: Shutdown stops admitting, drains every in-flight
//     solve, and only then lets the caller close the engine.
//
// Endpoints:
//
//	POST   /v1/solve               SolveRequest             -> SolveResponse
//	POST   /v1/solve/batch         [SolveRequest...]        -> BatchResponse
//	POST   /v1/evaluate            EvaluateRequest          -> EvaluateResponse
//	POST   /v1/sessions            CreateSessionRequest     -> CreateSessionResponse
//	POST   /v1/sessions/{id}/events SessionEventsRequest    -> SessionEventsResponse
//	GET    /v1/sessions/{id}                                -> SessionResponse
//	DELETE /v1/sessions/{id}                                -> 204
//	GET    /v1/algorithms          registered solvers + parameter schemas
//	GET    /healthz                liveness + drain state
//	GET    /v1/stats               StatsResponse (engine + admission + coalescing + sessions + store)
//	GET    /metrics                the tagged /v1/stats counters plus computed gauges
//	                               (mean solve time, SLO and latency), Prometheus text
//
// The /v1/sessions endpoints are the live-session subsystem (the paper's
// Extension F as a serving path): ID-keyed versioned sessions over a
// session.Manager with serialized event application, bounded admission, TTL
// eviction and background drift repair. See internal/session. With
// Options.Store set, every persisted session is recovered — snapshot +
// WAL-tail replay — before the server takes its first request, and served
// at the exact (version, value, configuration) it had before the restart.
// See internal/store.
//
// All request bodies are decoded strictly: unknown fields and trailing
// content are rejected with 400, so a misspelled field fails loudly instead
// of solving a silently-zeroed instance.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/registry"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/store"
	"github.com/svgic/svgic/internal/telemetry"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when the client abandoned the request before the
// solve finished.
const StatusClientClosedRequest = 499

// Defaults for Options zero values.
const (
	DefaultTimeout      = 10 * time.Second
	DefaultMaxTimeout   = 2 * time.Minute
	DefaultMaxBodyBytes = 8 << 20
	DefaultMaxBatch     = 64
	DefaultRetryAfter   = time.Second
)

// Options configures a Server.
type Options struct {
	// Engine executes the solves. Required; the server does not own it —
	// call Engine.Close after Shutdown. Requests without an "algo"/"params"
	// selection run the engine's default solver.
	Engine *engine.Engine
	// DefaultAlgo is the registry name backing requests that send "params"
	// without "algo" (and the name advertised by /v1/algorithms as the
	// default). Empty means "avgd". It should match the engine's default
	// solver so explicit and implicit requests share cache entries.
	DefaultAlgo string
	// DefaultParams parameterizes DefaultAlgo the way the engine's default
	// solver is configured (svgicd derives both from the same flags), so a
	// request naming the default algorithm explicitly resolves the SAME
	// solver as a bare request — request "params" overlay these.
	DefaultParams registry.Params
	// MaxInFlight bounds concurrently admitted requests; excess load is shed
	// with 429. Zero means 4 × engine workers.
	MaxInFlight int
	// DefaultTimeout bounds a request that sends no `timeout` parameter.
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested `timeout` parameter.
	MaxTimeout time.Duration
	// MaxBodyBytes caps request body size. Zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatch caps instances per batch request. Zero means DefaultMaxBatch.
	MaxBatch int
	// RetryAfter is the hint sent with 429 responses.
	RetryAfter time.Duration
	// Sessions is the live-session manager backing the /v1/sessions
	// endpoints. The server does not own it — close it after Shutdown, before
	// the engine. Nil builds a loop-less default manager over Engine (bounded
	// admission, but no TTL eviction and no background drift repair), which
	// the server DOES own and closes at the end of Shutdown.
	Sessions *session.Manager
	// Store is the durable session store. When set, New recovers every
	// persisted session into the manager before the server can take a
	// request — re-resolving each session's drift-repair solver from its
	// persisted registry reference — and /v1/stats (and /metrics) carry the
	// store's counters. The server does not own the store: the caller closes
	// it after the manager (and typically also attached it to the manager as
	// its Persister; New does not do that wiring, because the manager is
	// built first).
	Store *store.Store
	// Telemetry is the latency tracker behind the per-route series, the
	// /v1/stats latency section, the /metrics digest families and the SLO
	// controller. Nil builds one on the system clock. svgicd shares one
	// tracker between the server and the engine/session observer hooks, so
	// route, per-algorithm and repair series live side by side.
	Telemetry *telemetry.Tracker
	// SLOs are the latency objectives the adaptive admission controller
	// enforces (see telemetry.ParseObjectives for the grammar). Empty means
	// no controller: nothing degrades, nothing sheds adaptively, and
	// /v1/stats carries no slo section.
	SLOs []telemetry.Objective
	// DegradeAlgo is the cheap fallback algorithm degraded requests are
	// rerouted to. Empty means "avgd".
	DegradeAlgo string
	// DegradeFrom lists the algorithms eligible for rerouting while
	// degraded. Empty means {"ip", "sdp"} — the expensive exact/relaxation
	// solvers. Requests that don't name an algorithm are never degraded.
	DegradeFrom []string
	// NoAdaptiveAdmission keeps the SLO measurement (burn rates in /v1/stats
	// and /metrics) but disables the feedback: no degrading, no adaptive
	// shedding.
	NoAdaptiveAdmission bool
	// SLOEvalEvery, SLOEscalateAfter, SLOMinDwell and SLOShedFactor tune the
	// admission controller; zeros mean the telemetry package defaults.
	SLOEvalEvery     time.Duration
	SLOEscalateAfter time.Duration
	SLOMinDwell      time.Duration
	SLOShedFactor    float64
}

// Server is the svgicd HTTP handler. Create with New, stop with Shutdown.
type Server struct {
	eng    *engine.Engine
	coal   *engine.Coalescer
	mgr    *session.Manager
	ownMgr bool // New built mgr itself (Options.Sessions was nil): Shutdown closes it
	opts   Options
	mux    *http.ServeMux

	// tel records per-route latency; ctrl (nil without Options.SLOs) walks
	// the degradation ladder over it. degradeFrom is the lowered DegradeFrom
	// set.
	tel         *telemetry.Tracker
	ctrl        *telemetry.Controller
	degradeFrom map[string]bool

	// sem holds one token per admitted request; Shutdown drains the server
	// by acquiring every token after flipping draining, so "all tokens held
	// by Shutdown" == "no request in flight".
	sem      chan struct{}
	draining atomic.Bool

	admitted      atomic.Uint64
	shed          atomic.Uint64
	adaptiveShed  atomic.Uint64
	degradedTotal atomic.Uint64
	badRequests   atomic.Uint64
	timeouts      atomic.Uint64
	clientClosed  atomic.Uint64
}

// New builds a Server over an engine.
func New(opts Options) (*Server, error) {
	if opts.Engine == nil {
		return nil, errors.New("server: Options.Engine is required")
	}
	opts.DefaultAlgo = strings.ToLower(opts.DefaultAlgo)
	if opts.DefaultAlgo == "" {
		opts.DefaultAlgo = "avgd"
	}
	if _, err := registry.New(opts.DefaultAlgo, opts.DefaultParams); err != nil {
		return nil, fmt.Errorf("server: default algorithm: %w", err)
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 4 * opts.Engine.Stats().Workers
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = DefaultTimeout
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = DefaultMaxTimeout
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewTracker(telemetry.TrackerOptions{})
	}
	opts.DegradeAlgo = strings.ToLower(opts.DegradeAlgo)
	if opts.DegradeAlgo == "" {
		opts.DegradeAlgo = "avgd"
	}
	if _, err := registry.New(opts.DegradeAlgo, nil); err != nil {
		return nil, fmt.Errorf("server: degrade algorithm: %w", err)
	}
	if len(opts.DegradeFrom) == 0 {
		opts.DegradeFrom = []string{"ip", "sdp"}
	}
	s := &Server{
		eng:         opts.Engine,
		opts:        opts,
		sem:         make(chan struct{}, opts.MaxInFlight),
		tel:         opts.Telemetry,
		degradeFrom: make(map[string]bool, len(opts.DegradeFrom)),
	}
	for _, algo := range opts.DegradeFrom {
		s.degradeFrom[strings.ToLower(algo)] = true
	}
	if len(opts.SLOs) > 0 {
		ctrl, err := telemetry.NewController(telemetry.ControllerOptions{
			Tracker:       opts.Telemetry,
			Objectives:    opts.SLOs,
			EvalEvery:     opts.SLOEvalEvery,
			EscalateAfter: opts.SLOEscalateAfter,
			MinDwell:      opts.SLOMinDwell,
			ShedFactor:    opts.SLOShedFactor,
		})
		if err != nil {
			return nil, fmt.Errorf("server: slo controller: %w", err)
		}
		s.ctrl = ctrl
	}
	s.coal = engine.NewCoalescer(opts.Engine)
	s.mgr = opts.Sessions
	if s.mgr == nil {
		// The default manager persists through Options.Store when one is
		// given — otherwise recovered sessions would be served but their
		// subsequent transitions silently dropped, and the NEXT restart
		// would resurrect stale state.
		mopts := session.Options{Engine: opts.Engine}
		if opts.Store != nil {
			mopts.Persister = opts.Store
		}
		mgr, err := session.NewManager(mopts)
		if err != nil {
			return nil, fmt.Errorf("server: session manager: %w", err)
		}
		s.mgr = mgr
		s.ownMgr = true
	}
	if opts.Store != nil {
		if err := s.recoverSessions(); err != nil {
			// A manager New built itself has no other owner to stop its
			// background loop.
			if s.ownMgr {
				s.mgr.Close()
			}
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/solve/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	return s, nil
}

// Sessions returns the live-session manager serving /v1/sessions.
func (s *Server) Sessions() *session.Manager { return s.mgr }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the server: new requests are refused with 503, in-flight
// solves run to completion, and once every admission token is reclaimed the
// call returns — after which it is safe to Engine.Close. The context bounds
// the wait; on expiry the server stays draining but some requests may still
// be in flight.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	for i := 0; i < cap(s.sem); i++ {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("server: drain interrupted with requests in flight: %w", ctx.Err())
		}
	}
	// A manager the server built itself (Options.Sessions was nil) has no
	// other owner; close it now that no request can touch it. A
	// caller-supplied manager stays the caller's to close.
	if s.ownMgr {
		s.mgr.Close()
	}
	return nil
}

// Draining reports whether Shutdown has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit reserves an in-flight slot, writing the refusal response itself when
// the server is draining (503) or saturated (429). The Retry-After hint on a
// 429 derives from the route's observed p50 (see retryAfterSeconds). The
// caller must release() iff admit returns true.
func (s *Server) admit(w http.ResponseWriter, route string) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(route)))
		writeError(w, http.StatusTooManyRequests, "server at max in-flight capacity")
		return false
	}
	// Re-check after acquiring: Shutdown may have flipped draining between
	// the check above and the acquire; it is now collecting every token, so
	// hand this one back instead of racing the drain.
	if s.draining.Load() {
		<-s.sem
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	// Adaptive shed: while the controller sheds, the effective cap sits
	// below the semaphore's; a token beyond it is handed straight back.
	if eff := s.effectiveMaxInFlight(); len(s.sem) > eff {
		<-s.sem
		s.shed.Add(1)
		s.adaptiveShed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(route)))
		writeError(w, http.StatusTooManyRequests, "shedding load to protect latency objectives")
		return false
	}
	s.admitted.Add(1)
	return true
}

func (s *Server) release() { <-s.sem }

// requestTimeout resolves the per-request deadline from the `timeout` query
// parameter, clamped to the server maximum.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return s.opts.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("invalid timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout %q must be positive", raw)
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d, nil
}

// resolveSolver maps a request's algorithm selection to a solver. A request
// with neither "algo" nor "params" returns nil: it runs the engine's default
// solver (whatever svgicd configured), which keeps a bare InstanceJSON body
// a valid request. "params" without "algo" parameterizes the server's
// default algorithm. Requests naming the default algorithm start from
// Options.DefaultParams (the server's flag-derived configuration) with the
// request's "params" overlaid, so explicit and bare requests resolve the
// same solver.
func (s *Server) resolveSolver(algo string, raw json.RawMessage) (core.Solver, error) {
	if algo == "" && len(raw) == 0 {
		return nil, nil
	}
	// Normalize before comparing with DefaultAlgo: registry lookup is
	// case-insensitive, so "AVGD" must select the same default parameters
	// as "avgd".
	algo = strings.ToLower(algo)
	if algo == "" {
		algo = s.opts.DefaultAlgo
	}
	var params registry.Params
	if algo == s.opts.DefaultAlgo && len(s.opts.DefaultParams) > 0 {
		params = make(registry.Params, len(s.opts.DefaultParams))
		for k, v := range s.opts.DefaultParams {
			params[k] = v
		}
	}
	if len(raw) > 0 {
		var req registry.Params
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, fmt.Errorf(`"params" must be an object: %v`, err)
		}
		if params == nil {
			params = req
		} else {
			for k, v := range req {
				params[k] = v
			}
		}
	}
	return registry.New(algo, params)
}

// solve routes one instance through the coalescer; a nil solver means the
// engine default.
func (s *Server) solve(ctx context.Context, in *core.Instance, solver core.Solver) (*core.Solution, error) {
	if solver != nil {
		return s.coal.SolveWith(ctx, in, solver)
	}
	return s.coal.Solve(ctx, in)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.admit(w, routeSolve) {
		return
	}
	defer s.release()
	defer s.observe(routeSolve)()
	timeout, err := s.requestTimeout(r)
	if err != nil {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var sr SolveRequest
	if err := core.DecodeStrict(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), &sr); err != nil {
		s.writeDecodeError(w, "decoding instance", err)
		return
	}
	in, err := core.InstanceFromJSON(&sr.InstanceJSON)
	if err != nil {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	solver, err := s.resolveSolver(sr.Algo, sr.Params)
	if err != nil {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	degraded := false
	if s.shouldDegrade(sr.Algo) {
		if fallback, ferr := s.resolveSolver(s.opts.DegradeAlgo, nil); ferr == nil {
			solver = fallback
			degraded = true
			s.noteDegraded(sr.Algo)
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	start := time.Now()
	sol, err := s.solve(ctx, in, solver)
	if err != nil {
		s.writeSolveError(w, err)
		return
	}
	resp := solveResponse(sol, time.Since(start))
	resp.Degraded = degraded
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.admit(w, routeBatch) {
		return
	}
	defer s.release()
	defer s.observe(routeBatch)()
	timeout, err := s.requestTimeout(r)
	if err != nil {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var srs []SolveRequest
	if err := core.DecodeStrict(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), &srs); err != nil {
		s.writeDecodeError(w, "decoding batch", err)
		return
	}
	if len(srs) == 0 {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(srs) > s.opts.MaxBatch {
		s.badRequests.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(srs), s.opts.MaxBatch))
		return
	}
	ins := make([]*core.Instance, len(srs))
	solvers := make([]core.Solver, len(srs))
	degraded := make([]bool, len(srs))
	for i := range srs {
		in, err := core.InstanceFromJSON(&srs[i].InstanceJSON)
		if err != nil {
			s.badRequests.Add(1)
			writeError(w, http.StatusBadRequest, fmt.Sprintf("instance %d: %v", i, err))
			return
		}
		ins[i] = in
		solver, err := s.resolveSolver(srs[i].Algo, srs[i].Params)
		if err != nil {
			s.badRequests.Add(1)
			writeError(w, http.StatusBadRequest, fmt.Sprintf("instance %d: %v", i, err))
			return
		}
		if s.shouldDegrade(srs[i].Algo) {
			if fallback, ferr := s.resolveSolver(s.opts.DegradeAlgo, nil); ferr == nil {
				solver = fallback
				degraded[i] = true
				s.noteDegraded(srs[i].Algo)
			}
		}
		solvers[i] = solver
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	start := time.Now()
	// Per-item solvers (instances may select different algorithms); the
	// coalescer still collapses duplicates inside and across batches.
	sols, solveErr := s.coal.SolveBatchEach(ctx, ins, solvers)
	elapsed := time.Since(start)
	// The batch shares one deadline, so a context failure is the whole
	// request's failure; any other per-item error is an internal fault.
	if solveErr != nil {
		if errors.Is(solveErr, context.DeadlineExceeded) || errors.Is(solveErr, context.Canceled) {
			s.writeSolveError(w, solveErr)
			return
		}
		writeError(w, http.StatusInternalServerError, solveErr.Error())
		return
	}
	resp := BatchResponse{Results: make([]SolveResponse, len(sols)), ElapsedMS: ms(elapsed)}
	for i, sol := range sols {
		resp.Results[i] = solveResponse(sol, 0)
		resp.Results[i].Degraded = degraded[i]
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.admit(w, routeEvaluate) {
		return
	}
	defer s.release()
	defer s.observe(routeEvaluate)()
	var req EvaluateRequest
	if err := core.DecodeStrict(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), &req); err != nil {
		s.writeDecodeError(w, "decoding evaluate request", err)
		return
	}
	in, err := core.InstanceFromJSON(&req.Instance)
	if err != nil {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	conf := &core.Configuration{Assign: req.Configuration.Assignment, K: req.Configuration.Slots}
	if err := conf.Validate(in); err != nil {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rep := core.EvaluateST(in, conf, req.DTel)
	writeJSON(w, http.StatusOK, EvaluateResponse{
		Preference: rep.Preference,
		Social:     rep.Social,
		Weighted:   rep.Weighted(),
		Scaled:     rep.Scaled(),
	})
}

// handleAlgorithms serves the solver registry: names, display names and
// parameter schemas, so clients can discover what "algo"/"params" accept
// without a deploy-time contract.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	specs := registry.Specs()
	resp := AlgorithmsResponse{
		Default:    s.opts.DefaultAlgo,
		Algorithms: make([]AlgorithmInfo, len(specs)),
	}
	for i, spec := range specs {
		resp.Algorithms[i] = AlgorithmInfo{
			Name:          spec.Name,
			Display:       spec.Display,
			Description:   spec.Description,
			Deterministic: spec.Deterministic,
			Params:        spec.Params,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Workers: s.eng.Stats().Workers})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// StatsSnapshot assembles the /v1/stats payload: engine counters (global and
// per algorithm), admission counters and coalescing counters.
func (s *Server) StatsSnapshot() StatsResponse {
	resp := StatsResponse{
		Server: ServerStats{
			Admitted:     s.admitted.Load(),
			Shed:         s.shed.Load(),
			BadRequests:  s.badRequests.Load(),
			Timeouts:     s.timeouts.Load(),
			ClientClosed: s.clientClosed.Load(),
			InFlight:     len(s.sem),
			MaxInFlight:  cap(s.sem),
			Draining:     s.draining.Load(),
		},
		Engine:   s.eng.Stats(),
		Coalesce: CoalesceStats{Enabled: true, CoalesceStats: s.coal.Stats()},
	}
	resp.Sessions = SessionsStats{
		Enabled:     true,
		MaxSessions: s.mgr.MaxSessions(),
		Stats:       s.mgr.Stats(),
	}
	if s.opts.Store != nil {
		resp.Store = &StoreStats{Enabled: true, Stats: s.opts.Store.Stats()}
	}
	if lat := s.tel.Snapshot(); len(lat) > 0 {
		resp.Latency = make(map[string]LatencyStats, len(lat))
		for name, sn := range lat {
			resp.Latency[name] = LatencyStats{
				Count: sn.Count,
				P50MS: ms(sn.P50),
				P90MS: ms(sn.P90),
				P99MS: ms(sn.P99),
				MaxMS: ms(sn.Max),
			}
		}
	}
	if s.ctrl != nil {
		cs := s.ctrl.Snapshot()
		resp.SLO = &SLOStats{
			AdaptiveAdmission:    !s.opts.NoAdaptiveAdmission,
			Level:                cs.Level,
			EffectiveMaxInFlight: s.effectiveMaxInFlight(),
			Transitions:          cs.Transitions,
			AdaptiveShed:         s.adaptiveShed.Load(),
			DegradedTotal:        s.degradedTotal.Load(),
			DegradedByAlgo:       cs.Degraded,
			Objectives:           cs.Objectives,
		}
	}
	return resp
}

// writeDecodeError maps a request-body decode failure: an oversized body is
// 413 (the client should not blindly retry a "malformed" 400), everything
// else — malformed JSON, unknown fields, trailing content — is 400.
func (s *Server) writeDecodeError(w http.ResponseWriter, what string, err error) {
	s.badRequests.Add(1)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s: request body exceeds %d bytes", what, mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, what+": "+err.Error())
}

// writeSolveError maps a solve failure to its HTTP status: deadline → 504,
// client gone → 499, engine closed → 503, anything else → 500.
func (s *Server) writeSolveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, "solve deadline exceeded")
	case errors.Is(err, context.Canceled):
		s.clientClosed.Add(1)
		writeError(w, StatusClientClosedRequest, "client closed request")
	case errors.Is(err, engine.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "engine is shut down")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// solveResponse assembles the response for one solution: the assignment,
// its utility report and the solver provenance the Solution carries.
func solveResponse(sol *core.Solution, elapsed time.Duration) SolveResponse {
	resp := SolveResponse{
		Algorithm:  sol.Algorithm,
		Slots:      sol.Config.K,
		Assignment: sol.Config.Assign,
		Preference: sol.Report.Preference,
		Social:     sol.Report.Social,
		Weighted:   sol.Report.Weighted(),
		Scaled:     sol.Report.Scaled(),
		Components: sol.Components,
		Nodes:      sol.Nodes,
		Bound:      sol.Bound,
		Exact:      sol.Exact,
		SolveMS:    ms(sol.Wall),
		ElapsedMS:  ms(elapsed),
	}
	if sol.Rounding != nil {
		resp.LPObjective = sol.Rounding.LPObjective
	}
	return resp
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}
