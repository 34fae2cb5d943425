// Package server implements svgicd's HTTP serving layer over the engine: the
// JSON API (core.InstanceJSON in, solutions and utility reports out) plus
// the serving-path machinery a network front door needs —
//
//   - admission control: a bounded in-flight limit that sheds excess load
//     with 429 + Retry-After: 1 instead of queueing unboundedly;
//   - per-request deadlines: a `timeout` query parameter (capped by the
//     server maximum) wired into the context the engine and every solver
//     honour, mapped to 504 on expiry and 499 when the client goes away;
//   - per-request algorithm selection: an optional "algo" + "params" pair on
//     solve requests resolves any registered solver (GET /v1/algorithms
//     lists them with parameter schemas); cache and coalescing keys pair the
//     instance fingerprint with the solver identity, so AVG and AVG-D
//     results never alias;
//   - request coalescing, done by the engine for every solve, batch item and
//     session create: concurrent identical (instance, solver) requests run
//     the solver once and fan the result out as deep copies — the
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
// Every route is registered once, with a method pattern, so a wrong method
// gets the mux's 405 before anything else runs. Each admitted route goes
// through one wrapper, route: it admits the request (answering 429 or 503
// itself), times it into the route's latency series and releases the
// admission token when the handler returns. /v1/algorithms, /v1/stats,
// /metrics and /healthz are not admitted.
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
// of solving a silently-zeroed instance, and a body over 8 MiB gets 413.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
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
	DefaultTimeout    = 10 * time.Second
	DefaultMaxTimeout = 2 * time.Minute
	DefaultMaxBatch   = 64
)

// maxBodyBytes caps a request body; a larger one is refused with 413.
const maxBodyBytes = 8 << 20

// retryAfter is the Retry-After hint, in seconds, on every 429: the
// admission shed, the adaptive shed and the session limit. One second is the
// shortest wait the header's whole-second format can ask for.
const retryAfter = "1"

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
	// MaxBatch caps instances per batch request. Zero means DefaultMaxBatch.
	MaxBatch int
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
	// NoAdaptiveAdmission keeps the SLO measurement (burn rates in /v1/stats
	// and /metrics) but disables the feedback: no degrading, no adaptive
	// shedding.
	NoAdaptiveAdmission bool
}

// Server is the svgicd HTTP handler. Create with New, stop with Shutdown.
type Server struct {
	eng    *engine.Engine
	mgr    *session.Manager
	ownMgr bool // New built mgr itself (Options.Sessions was nil): Shutdown closes it
	opts   Options
	mux    *http.ServeMux

	// tel records per-route latency; ctrl (nil without Options.SLOs) walks
	// the degradation ladder over it.
	tel  *telemetry.Tracker
	ctrl *telemetry.Controller

	// sem holds one token per admitted request; Shutdown drains the server
	// by acquiring every token after flipping draining, so "all tokens held
	// by Shutdown" == "no request in flight".
	sem      chan struct{}
	draining atomic.Bool

	admitted     atomic.Uint64
	shed         atomic.Uint64
	adaptiveShed atomic.Uint64
	badRequests  atomic.Uint64
	timeouts     atomic.Uint64
	clientClosed atomic.Uint64
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
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
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
	s := &Server{
		eng:  opts.Engine,
		opts: opts,
		sem:  make(chan struct{}, opts.MaxInFlight),
		tel:  opts.Telemetry,
	}
	if len(opts.SLOs) > 0 {
		ctrl, err := telemetry.NewController(telemetry.ControllerOptions{
			Tracker:    opts.Telemetry,
			Objectives: opts.SLOs,
		})
		if err != nil {
			return nil, fmt.Errorf("server: slo controller: %w", err)
		}
		s.ctrl = ctrl
	}
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
	s.route("POST /v1/solve", routeSolve, s.handleSolve)
	s.route("POST /v1/solve/batch", routeBatch, s.handleBatch)
	s.route("POST /v1/evaluate", routeEvaluate, s.handleEvaluate)
	s.route("POST /v1/sessions", routeSessionCreate, s.handleSessionCreate)
	s.route("POST /v1/sessions/{id}/events", routeSessionEvents, s.handleSessionEvents)
	s.route("GET /v1/sessions/{id}", routeSessionGet, s.handleSessionGet)
	s.route("DELETE /v1/sessions/{id}", routeSessionGet, s.handleSessionDelete)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// route registers an admitted handler: each request is admitted, timed into
// the series on the tracker's clock, and released when the handler returns.
func (s *Server) route(pattern, series string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w) {
			return
		}
		defer s.release()
		start := s.tel.Now()
		defer func() { s.tel.Record(series, s.tel.Now().Sub(start)) }()
		h(w, r)
	})
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
// the server is draining (503) or saturated (429, with Retry-After: 1). The
// caller must release() iff admit returns true.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", retryAfter)
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
		w.Header().Set("Retry-After", retryAfter)
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

// resolveSolver maps an algorithm selection to a solver: a request's "algo"
// and "params", a session create's size cap, or a recovered session's
// persisted SolverRef and cap. A selection with no algo, no params and no
// cap returns nil: it runs the engine's default solver (whatever svgicd
// configured), which keeps a bare InstanceJSON body a valid request.
// "params" without "algo" parameterizes the server's default algorithm.
// Selections naming the default algorithm start from Options.DefaultParams
// (the server's flag-derived configuration) with "params" overlaid, so
// explicit and bare requests resolve the same solver.
//
// A sizeCap > 0 is a capped session's subgroup bound, and its solver must
// solve the same capped problem the event path maintains: the algorithm
// needs a sizeCap parameter, a "params".sizeCap must equal the cap, and the
// cap is set when absent. A cap-incapable algorithm (e.g. "per") is an
// error, because its initial solve and every drift-repair re-solve would
// silently violate the bound.
func (s *Server) resolveSolver(algo string, raw json.RawMessage, sizeCap int) (core.Solver, error) {
	if algo == "" && len(raw) == 0 && sizeCap <= 0 {
		return nil, nil
	}
	// Normalize before comparing with DefaultAlgo: registry lookup is
	// case-insensitive, so "AVGD" must select the same default parameters
	// as "avgd".
	algo = strings.ToLower(algo)
	if algo == "" {
		algo = s.opts.DefaultAlgo
	}
	// An unknown algorithm skips the cap checks; registry.New names it.
	capped := false
	if sizeCap > 0 {
		spec, known := registry.Lookup(algo)
		if known && !slices.ContainsFunc(spec.Params, func(p registry.ParamSpec) bool { return p.Name == "sizeCap" }) {
			return nil, fmt.Errorf("algorithm %q has no sizeCap parameter: it cannot solve the capped problem a sizeCap=%d session maintains", algo, sizeCap)
		}
		capped = known
	}
	params := registry.Params{}
	if algo == s.opts.DefaultAlgo {
		maps.Copy(params, s.opts.DefaultParams)
	}
	if len(raw) > 0 {
		var req registry.Params
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, fmt.Errorf(`"params" must be an object: %v`, err)
		}
		// JSON numbers decode as float64, so an equal cap compares equal.
		if set, have := req["sizeCap"]; have && capped && set != float64(sizeCap) {
			return nil, fmt.Errorf(`"params".sizeCap %v conflicts with the session sizeCap %d`, set, sizeCap)
		}
		maps.Copy(params, req)
	}
	if capped {
		params["sizeCap"] = sizeCap
	}
	return registry.New(algo, params)
}

// selectSolver resolves a selection and applies the SLO reroute: while the
// ladder degrades, a selection naming an expensive algorithm gets the
// DegradeAlgo fallback (under the same cap) instead. ref is the algorithm
// that will be served, which a session persists as its durable solver
// identity. The caller notes a degraded request once the whole request has
// validated, so a rejected request never counts as degraded.
func (s *Server) selectSolver(algo string, raw json.RawMessage, sizeCap int) (solver core.Solver, ref session.SolverRef, degraded bool, err error) {
	if solver, err = s.resolveSolver(algo, raw, sizeCap); err != nil {
		return nil, session.SolverRef{}, false, err
	}
	if s.shouldDegrade(algo) {
		if fallback, ferr := s.resolveSolver(s.opts.DegradeAlgo, nil, sizeCap); ferr == nil {
			return fallback, session.SolverRef{Name: s.opts.DegradeAlgo}, true, nil
		}
	}
	return solver, session.SolverRef{Name: strings.ToLower(algo), Params: raw}, false, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	timeout, err := s.requestTimeout(r)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	var sr SolveRequest
	if !s.decode(w, r, "decoding instance", &sr) {
		return
	}
	in, err := core.InstanceFromJSON(&sr.InstanceJSON)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	solver, _, degraded, err := s.selectSolver(sr.Algo, sr.Params, 0)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	if degraded {
		s.noteDegraded(sr.Algo)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	start := time.Now()
	sol, err := s.eng.SolveWith(ctx, in, solver)
	if err != nil {
		s.writeSolveError(w, err)
		return
	}
	resp := solveResponse(sol, time.Since(start))
	resp.Degraded = degraded
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	timeout, err := s.requestTimeout(r)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	var srs []SolveRequest
	if !s.decode(w, r, "decoding batch", &srs) {
		return
	}
	if len(srs) == 0 {
		s.badRequest(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(srs) > s.opts.MaxBatch {
		s.badRequest(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(srs), s.opts.MaxBatch))
		return
	}
	ins := make([]*core.Instance, len(srs))
	solvers := make([]core.Solver, len(srs))
	degraded := make([]bool, len(srs))
	for i := range srs {
		in, err := core.InstanceFromJSON(&srs[i].InstanceJSON)
		if err == nil {
			solvers[i], _, degraded[i], err = s.selectSolver(srs[i].Algo, srs[i].Params, 0)
		}
		if err != nil {
			s.badRequest(w, http.StatusBadRequest, fmt.Sprintf("instance %d: %v", i, err))
			return
		}
		ins[i] = in
	}
	for i := range srs {
		if degraded[i] {
			s.noteDegraded(srs[i].Algo)
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	start := time.Now()
	// Per-item solvers (instances may select different algorithms);
	// duplicates inside and across batches still coalesce.
	sols, solveErr := s.eng.SolveBatchEach(ctx, ins, solvers)
	elapsed := time.Since(start)
	// The batch shares one deadline and one engine, so any item's failure is
	// the whole request's, mapped like a single solve's.
	if solveErr != nil {
		s.writeSolveError(w, solveErr)
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
	var req EvaluateRequest
	if !s.decode(w, r, "decoding evaluate request", &req) {
		return
	}
	in, err := core.InstanceFromJSON(&req.Instance)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	conf := &core.Configuration{Assign: req.Configuration.Assignment, K: req.Configuration.Slots}
	if err := conf.Validate(in); err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
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
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Workers: s.eng.Stats().Workers})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// StatsSnapshot assembles the /v1/stats payload: engine counters (global and
// per algorithm), admission counters and coalescing counters.
func (s *Server) StatsSnapshot() StatsResponse {
	eng := s.eng.Stats()
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
		Engine:   eng,
		Coalesce: CoalesceStats{Enabled: true, CoalesceStats: eng.CoalesceStats},
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
			DegradedByAlgo:       cs.Degraded,
			Objectives:           cs.Objectives,
		}
		for _, n := range cs.Degraded {
			resp.SLO.DegradedTotal += n
		}
	}
	return resp
}

// decode reads the request body strictly into v and reports whether it
// did, answering a failure itself: a body over maxBodyBytes is 413 (the
// client should not blindly retry a "malformed" 400), everything else —
// malformed JSON, unknown fields, trailing content — is 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := core.DecodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &mbe):
		s.badRequest(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s: request body exceeds %d bytes", what, mbe.Limit))
	default:
		s.badRequest(w, http.StatusBadRequest, what+": "+err.Error())
	}
	return false
}

// badRequest answers a request rejected as malformed, counting it in the
// badRequests counter whatever its 4xx status.
func (s *Server) badRequest(w http.ResponseWriter, code int, msg string) {
	s.badRequests.Add(1)
	writeError(w, code, msg)
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
