package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/session"
)

// The live-session endpoints promote the dynamic scenario (Extension F) to
// the serving path:
//
//	POST   /v1/sessions              CreateSessionRequest  -> CreateSessionResponse
//	POST   /v1/sessions/{id}/events  SessionEventsRequest  -> SessionEventsResponse
//	GET    /v1/sessions/{id}                               -> SessionResponse
//	DELETE /v1/sessions/{id}                               -> 204
//
// Sessions are held by a session.Manager: versioned, serialized event
// application, bounded session count (429 on overflow), TTL idle eviction
// and background drift repair through the engine. The /v1/stats payload
// carries the manager's counters under "sessions".

// recoverSessions rebuilds every session persisted in the durable store and
// installs it into the manager, before the server takes its first request.
// Each session's drift-repair solver is re-resolved from its persisted
// registry reference through the SAME resolveSolver creates use (the cap
// included), so a recovered capped session keeps repairing the capped
// problem. A session whose solver no longer resolves — a registry entry
// removed across the restart — recovers onto the engine default rather
// than being dropped: serving the exact pre-crash state matters more than
// which solver repairs it next.
func (s *Server) recoverSessions() error {
	recs, err := s.opts.Store.Recover()
	if err != nil {
		return fmt.Errorf("server: recovering sessions: %w", err)
	}
	for _, rec := range recs {
		// A failed resolution returns nil, the engine default.
		solver, _ := s.resolveSolver(rec.State.Ref.Name, rec.State.Ref.Params, rec.State.SizeCap)
		if _, err := s.mgr.Restore(rec.State, solver); err != nil {
			return fmt.Errorf("server: restoring session %s: %w", rec.State.ID, err)
		}
	}
	return nil
}

// writeSessionError maps session-manager failures onto HTTP statuses:
// unknown id → 404, session limit → 429 + Retry-After, manager/engine shut
// down → 503, deadline/cancel → 504/499, anything else (event validation,
// inactive users, malformed vectors) → 400.
func (s *Server) writeSessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, session.ErrNotFound):
		writeError(w, http.StatusNotFound, "no such session")
	case errors.Is(err, session.ErrLimit):
		s.shed.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "session limit reached")
	case errors.Is(err, session.ErrClosed), errors.Is(err, engine.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "sessions are shut down")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.writeSolveError(w, err)
	default:
		s.badRequest(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	timeout, err := s.requestTimeout(r)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	var req CreateSessionRequest
	if !s.decode(w, r, "decoding session request", &req) {
		return
	}
	if req.SizeCap < 0 {
		s.badRequest(w, http.StatusBadRequest, fmt.Sprintf("sizeCap %d is negative", req.SizeCap))
		return
	}
	in, err := core.InstanceFromJSON(&req.InstanceJSON)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	// The served algorithm's reference is the session's durable solver
	// identity: recovery re-resolves it through the same resolveSolver, so a
	// restarted session repairs with the solver it was created with. A
	// degraded create keeps the fallback, because its drift repair must not
	// run the expensive solver the latency objective is protecting against.
	solver, ref, degraded, err := s.selectSolver(req.Algo, req.Params, req.SizeCap)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	if degraded {
		s.noteDegraded(req.Algo)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	start := time.Now()
	snap, sol, err := s.mgr.CreateWith(ctx, in, session.CreateSpec{Solver: solver, SizeCap: req.SizeCap, Ref: ref})
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateSessionResponse{
		ID:        snap.ID,
		Algorithm: snap.Algorithm,
		Version:   snap.Version,
		Value:     snap.Value,
		Users:     snap.Users,
		SizeCap:   snap.SizeCap,
		Degraded:  degraded,
		SolveMS:   ms(sol.Wall),
		ElapsedMS: ms(time.Since(start)),
	})
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	var req SessionEventsRequest
	if !s.decode(w, r, "decoding events", &req) {
		return
	}
	if len(req.Events) == 0 {
		s.badRequest(w, http.StatusBadRequest, "empty event batch")
		return
	}
	if len(req.Events) > s.opts.MaxBatch {
		s.badRequest(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("event batch of %d exceeds limit %d", len(req.Events), s.opts.MaxBatch))
		return
	}
	start := time.Now()
	res, err := s.mgr.Apply(r.PathValue("id"), req.Events)
	if err != nil {
		// Events apply in order and stop at the first failure; earlier
		// events stay applied, so the error names both the failure and how
		// far the batch got.
		s.writeSessionError(w, fmt.Errorf("%w (%d of %d events applied, version %d)",
			err, len(res.Results), len(req.Events), res.Version))
		return
	}
	writeJSON(w, http.StatusOK, SessionEventsResponse{
		Version:   res.Version,
		Value:     res.Value,
		Results:   res.Results,
		ElapsedMS: ms(time.Since(start)),
	})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.mgr.Snapshot(r.PathValue("id"))
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	now := time.Now()
	writeJSON(w, http.StatusOK, SessionResponse{
		ID:         snap.ID,
		Algorithm:  snap.Algorithm,
		SizeCap:    snap.SizeCap,
		Version:    snap.Version,
		Value:      snap.Value,
		Users:      snap.Users,
		Active:     snap.Active,
		Slots:      snap.Slots,
		Assignment: snap.Assignment,
		AgeMS:      ms(now.Sub(snap.Created)),
		IdleMS:     ms(now.Sub(snap.LastTouch)),
		Metrics:    snap.Metrics,
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Delete(r.PathValue("id")); err != nil {
		s.writeSessionError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
