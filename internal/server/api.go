package server

import (
	"encoding/json"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/registry"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/store"
	"github.com/svgic/svgic/internal/telemetry"
)

// Wire types of the svgicd JSON API. Instances travel as core.InstanceJSON
// (the interchange schema shared with the CLI and datagen); everything here
// is the server's side of the conversation. cmd/svgicload and the e2e tests
// decode into these same types, so schema drift breaks the build, not the
// wire.

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SolveRequest is the body of POST /v1/solve: the instance itself (the
// core.InstanceJSON fields, inline) plus an optional algorithm selection.
// A bare InstanceJSON document remains a valid request and runs the server's
// default solver; "algo" picks any registered solver by name and "params"
// overrides its parameters (schemas via GET /v1/algorithms).
type SolveRequest struct {
	core.InstanceJSON
	Algo   string          `json:"algo,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
}

// SolveResponse answers POST /v1/solve: the SAVG k-Configuration plus its
// utility report under plain SVGIC semantics and the solver's provenance.
type SolveResponse struct {
	Algorithm  string  `json:"algorithm"`
	Slots      int     `json:"slots"`
	Assignment [][]int `json:"assignment"`
	Preference float64 `json:"preference"`
	Social     float64 `json:"social"`
	Weighted   float64 `json:"weighted"`
	Scaled     float64 `json:"scaled"`
	// Components is the number of independently solved social-network
	// components merged into the assignment (1 = solved whole).
	Components int `json:"components,omitempty"`
	// LPObjective is the fractional relaxation objective (AVG/AVG-D only).
	LPObjective float64 `json:"lpObjective,omitempty"`
	// Nodes/Bound/Exact carry the branch-and-bound certificate (IP only).
	Nodes     int     `json:"nodes,omitempty"`
	Bound     float64 `json:"bound,omitempty"`
	Exact     bool    `json:"exact,omitempty"`
	SolveMS   float64 `json:"solveMs,omitempty"`   // solver wall time (cached: the original solve's)
	ElapsedMS float64 `json:"elapsedMs,omitempty"` // request wall time
	// Degraded marks a request whose algorithm selection was rerouted to the
	// cheap fallback by SLO-driven admission control (Algorithm reports the
	// solver that actually ran).
	Degraded bool `json:"degraded,omitempty"`
}

// BatchResponse answers POST /v1/solve/batch; Results is positional with the
// request's instance array.
type BatchResponse struct {
	Results   []SolveResponse `json:"results"`
	ElapsedMS float64         `json:"elapsedMs"`
}

// EvaluateRequest is the body of POST /v1/evaluate: score a configuration
// against an instance under SVGIC-ST semantics (dtel = 0 gives plain SVGIC).
type EvaluateRequest struct {
	Instance      core.InstanceJSON      `json:"instance"`
	Configuration core.ConfigurationJSON `json:"configuration"`
	DTel          float64                `json:"dtel,omitempty"`
}

// EvaluateResponse answers POST /v1/evaluate.
type EvaluateResponse struct {
	Preference float64 `json:"preference"`
	Social     float64 `json:"social"`
	Weighted   float64 `json:"weighted"`
	Scaled     float64 `json:"scaled"`
}

// AlgorithmInfo describes one registered solver for GET /v1/algorithms.
type AlgorithmInfo struct {
	Name          string               `json:"name"`    // registry name, what "algo" accepts
	Display       string               `json:"display"` // reported in SolveResponse.Algorithm
	Description   string               `json:"description,omitempty"`
	Deterministic bool                 `json:"deterministic"`
	Params        []registry.ParamSpec `json:"params,omitempty"`
}

// AlgorithmsResponse answers GET /v1/algorithms.
type AlgorithmsResponse struct {
	Default    string          `json:"default"` // server default algorithm name
	Algorithms []AlgorithmInfo `json:"algorithms"`
}

// CreateSessionRequest is the body of POST /v1/sessions: the starting
// instance (core.InstanceJSON fields, inline) plus an optional algorithm
// selection — the named solver both produces the initial configuration and
// backs the session's drift repair — and an optional SVGIC-ST subgroup size
// cap enforced on event application. When sizeCap is set and the selected
// algorithm's schema has a sizeCap parameter not explicitly given, the
// server injects it, so the repair solver solves the same capped problem the
// session maintains.
type CreateSessionRequest struct {
	core.InstanceJSON
	Algo    string          `json:"algo,omitempty"`
	Params  json.RawMessage `json:"params,omitempty"`
	SizeCap int             `json:"sizeCap,omitempty"`
}

// CreateSessionResponse answers POST /v1/sessions.
type CreateSessionResponse struct {
	ID        string  `json:"id"`
	Algorithm string  `json:"algorithm"`
	Version   uint64  `json:"version"`
	Value     float64 `json:"value"`
	Users     int     `json:"users"`
	SizeCap   int     `json:"sizeCap,omitempty"`
	// Degraded marks a create whose algorithm selection was rerouted to the
	// cheap fallback by SLO-driven admission control; the session keeps the
	// fallback as its durable solver identity.
	Degraded  bool    `json:"degraded,omitempty"`
	SolveMS   float64 `json:"solveMs,omitempty"`
	ElapsedMS float64 `json:"elapsedMs,omitempty"`
}

// SessionEventsRequest is the body of POST /v1/sessions/{id}/events: a batch
// of live-session events applied in order under the session's serializing
// lock (see the session package for the event schema).
type SessionEventsRequest struct {
	Events []session.Event `json:"events"`
}

// SessionEventsResponse answers POST /v1/sessions/{id}/events: the session's
// version and objective value after the batch, plus one result per applied
// event. Every applied event bumps the version by exactly one (drift-repair
// swaps between batches bump it too), so a client replaying a trace can
// assert monotone progress.
type SessionEventsResponse struct {
	Version   uint64                `json:"version"`
	Value     float64               `json:"value"`
	Results   []session.EventResult `json:"results"`
	ElapsedMS float64               `json:"elapsedMs,omitempty"`
}

// SessionResponse answers GET /v1/sessions/{id}: the live configuration and
// the per-session metrics (events applied per kind, accumulated rebalance
// gain, drift-repair swap/keep/stale counts).
type SessionResponse struct {
	ID         string          `json:"id"`
	Algorithm  string          `json:"algorithm"`
	SizeCap    int             `json:"sizeCap,omitempty"`
	Version    uint64          `json:"version"`
	Value      float64         `json:"value"`
	Users      int             `json:"users"`
	Active     []int           `json:"active"`
	Slots      int             `json:"slots"`
	Assignment [][]int         `json:"assignment"`
	AgeMS      float64         `json:"ageMs"`
	IdleMS     float64         `json:"idleMs"`
	Metrics    session.Metrics `json:"metrics"`
}

// SessionsStats is the live-session slice of GET /v1/stats: the admission
// bound, manager-level admission/eviction counters, aggregate event counts
// and the drift-repair swap/keep/stale split.
type SessionsStats struct {
	Enabled     bool `json:"enabled"`
	MaxSessions int  `json:"maxSessions" metric:"svgicd_sessions_max" help:"Session admission bound."`
	session.Stats
}

// StoreStats is the durable-session-store slice of GET /v1/stats: WAL
// append/fsync/snapshot/compaction counters plus the recovery counters of
// the last startup (sessions recovered, WAL tail records replayed, torn
// tails tolerated). Absent when svgicd runs without -data-dir.
type StoreStats struct {
	Enabled bool `json:"enabled"`
	store.Stats
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	Workers int    `json:"workers,omitempty"`
}

// ServerStats is the admission-control slice of GET /v1/stats.
type ServerStats struct {
	Admitted     uint64 `json:"admitted" metric:"svgicd_requests_admitted_total" help:"Requests admitted past the in-flight bound."`
	Shed         uint64 `json:"shed" metric:"svgicd_requests_shed_total" help:"Requests shed with 429 (admission or session limit)."`
	BadRequests  uint64 `json:"badRequests" metric:"svgicd_bad_requests_total" help:"Requests rejected as malformed (4xx)."`
	Timeouts     uint64 `json:"timeouts" metric:"svgicd_timeouts_total" help:"Solves that exceeded their deadline (504)."`
	ClientClosed uint64 `json:"clientClosed" metric:"svgicd_client_closed_total" help:"Requests abandoned by the client mid-solve (499)."`
	InFlight     int    `json:"inFlight" metric:"svgicd_in_flight_requests" help:"Requests currently holding an admission token."`
	MaxInFlight  int    `json:"maxInFlight" metric:"svgicd_max_in_flight_requests" help:"Admission bound."`
	Draining     bool   `json:"draining" metric:"svgicd_draining" help:"1 while the server is draining for shutdown."`
}

// CoalesceStats is the request-coalescing slice of GET /v1/stats, read from
// the same engine snapshot as the engine section: leads equals
// engine.solves, and joins counts the calls that joined an identical
// in-flight solve (same instance AND same solver). Enabled is always true.
type CoalesceStats struct {
	Enabled bool `json:"enabled" metric:"svgicd_coalesce_enabled" help:"1 when request coalescing is on."`
	engine.CoalesceStats
}

// MemoStats is the /v1/solve decode memo's slice of GET /v1/stats: bodies
// found in the memo, bodies decoded because it did not hold them (malformed
// ones included), and entries evicted by its byte budget.
type MemoStats struct {
	Hits      uint64 `json:"hits" metric:"svgicd_solve_memo_hits_total" help:"/v1/solve bodies answered from the decode memo, skipping JSON parsing."`
	Misses    uint64 `json:"misses" metric:"svgicd_solve_memo_misses_total" help:"/v1/solve bodies decoded because the memo did not hold them."`
	Evictions uint64 `json:"evictions" metric:"svgicd_solve_memo_evictions_total" help:"Decode memo entries evicted by its 4 MiB body budget."`
}

// LatencyStats is one latency series' sliding-window summary in GET
// /v1/stats: per-route request wall times ("solve", "session_create", ...),
// per-algorithm solver wall times ("algo:AVG-D", ...) and drift-repair cycle
// times ("repair").
type LatencyStats struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50Ms"`
	P90MS float64 `json:"p90Ms"`
	P99MS float64 `json:"p99Ms"`
	MaxMS float64 `json:"maxMs"`
}

// SLOStats is the SLO/adaptive-admission slice of GET /v1/stats: the
// controller's ladder rung, the anti-flap transition counter, the shed and
// degrade counters, and every objective's burn-rate state. Absent when the
// server runs without SLOs.
type SLOStats struct {
	// AdaptiveAdmission is false when feedback is disabled
	// (-no-adaptive-admission): burn rates are still reported but nothing
	// degrades or sheds.
	AdaptiveAdmission    bool                        `json:"adaptiveAdmission" metric:"svgicd_adaptive_admission" help:"1 when SLO feedback (degrade/shed) is enabled."`
	Level                string                      `json:"level"`
	EffectiveMaxInFlight int                         `json:"effectiveMaxInFlight" metric:"svgicd_effective_max_in_flight" help:"In-flight cap after adaptive shedding."`
	Transitions          uint64                      `json:"transitions" metric:"svgicd_slo_transitions_total" help:"Degradation ladder transitions (the anti-flap budget)."`
	AdaptiveShed         uint64                      `json:"adaptiveShed" metric:"svgicd_adaptive_shed_total" help:"Requests shed by the tightened adaptive cap."`
	DegradedTotal        uint64                      `json:"degradedTotal" metric:"svgicd_degraded_requests_total" help:"Requests rerouted to the fallback algorithm while degraded."`
	DegradedByAlgo       map[string]uint64           `json:"degradedByAlgo,omitempty" metric:"svgicd_degraded_requests_by_algo_total,algo" help:"Degraded requests by the algorithm they asked for."`
	Objectives           []telemetry.ObjectiveStatus `json:"objectives"`
}

// StatsResponse answers GET /v1/stats. It is also the /metrics table:
// fields tagged metric:"family[,label]", here and in the embedded engine,
// session and store structs, are exported there (see metrics.go).
type StatsResponse struct {
	Server   ServerStats             `json:"server"`
	Engine   engine.Stats            `json:"engine"`
	Coalesce CoalesceStats           `json:"coalesce"`
	Memo     MemoStats               `json:"memo"`
	Sessions SessionsStats           `json:"sessions"`
	Store    *StoreStats             `json:"store,omitempty"`
	Latency  map[string]LatencyStats `json:"latency,omitempty"`
	SLO      *SLOStats               `json:"slo,omitempty"`
}
