package server

import (
	"strings"

	"github.com/svgic/svgic/internal/telemetry"
)

// The SLO feedback loop: every admitted request records its wall time into a
// per-route telemetry series; when Options.SLOs are set, a
// telemetry.Controller watches those series' burn rates and the server reacts
// by walking the degradation ladder —
//
//   - LevelDegrade: requests selecting an expensive algorithm (degradeFrom:
//     ip and sdp) are silently rerouted to the cheap fallback
//     (DegradeAlgo, default avgd) and marked "degraded": true in the
//     response, trading optimality for latency before trading availability;
//   - LevelShed: on top of degrading, the effective in-flight cap tightens
//     to ShedFactor × MaxInFlight, so excess load is refused with 429 while
//     the latency objective recovers.
//
// The controller is built (and burn rates reported in /v1/stats and
// /metrics) whenever SLOs are configured; NoAdaptiveAdmission keeps the
// measurement but disables both feedback rungs.

// Route series names: one latency window per endpoint family. The engine
// hook adds "algo:<Display>" series and the session hook adds "repair".
const (
	routeSolve         = "solve"
	routeBatch         = "batch"
	routeEvaluate      = "evaluate"
	routeSessionCreate = "session_create"
	routeSessionEvents = "session_events"
	routeSessionGet    = "session_get"
)

// degradeFrom is the set of algorithms rerouted to the fallback while
// degraded: the expensive exact and relaxation solvers. Requests that don't
// name an algorithm are never degraded.
var degradeFrom = map[string]bool{"ip": true, "sdp": true}

// effectiveMaxInFlight is the in-flight cap after adaptive shedding: the
// configured cap, tightened by the controller while it sheds.
func (s *Server) effectiveMaxInFlight() int {
	if s.ctrl == nil || s.opts.NoAdaptiveAdmission {
		return cap(s.sem)
	}
	return s.ctrl.EffectiveCap(cap(s.sem))
}

// shouldDegrade reports whether a request selecting the named algorithm is
// rerouted to the fallback right now: the controller exists, feedback is on,
// the algorithm is on the degrade list, and the ladder sits at LevelDegrade
// or above.
func (s *Server) shouldDegrade(algo string) bool {
	if s.ctrl == nil || s.opts.NoAdaptiveAdmission {
		return false
	}
	algo = strings.ToLower(algo)
	if algo == "" || algo == s.opts.DegradeAlgo || !degradeFrom[algo] {
		return false
	}
	return s.ctrl.Level() >= telemetry.LevelDegrade
}

// noteDegraded counts one request rerouted away from the named algorithm;
// /v1/stats derives degradedTotal from these per-algorithm counts.
func (s *Server) noteDegraded(algo string) {
	s.ctrl.NoteDegraded(strings.ToLower(algo))
}
