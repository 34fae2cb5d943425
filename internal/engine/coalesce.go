package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/svgic/svgic/internal/core"
)

// Coalescer collapses concurrent identical Solve calls into one solver
// execution (singleflight keyed on core.Fingerprint PLUS the solver's cache
// key — a flash crowd asking for AVG must never be answered with AVG-D's
// result). The LRU cache only helps *after* the first solve of an instance
// completes; under a flash crowd — N identical requests arriving inside one
// solve's latency — all N would miss the cache and run the solver N times.
// The coalescer makes the first arrival the leader, parks the rest on its
// in-flight call, and fans the leader's solution out as deep copies, so
// every caller may mutate its configuration freely.
//
// Followers share the leader's results but not its context: if the leader's
// own deadline expires or its client disconnects mid-solve, a parked
// follower whose context is still live retries — leading a fresh flight or
// joining a newer one — instead of failing with an error that was never its
// own. A follower's context also bounds its wait, so it can give up early
// without affecting the leader.
type Coalescer struct {
	e *Engine

	mu sync.Mutex
	// inflight is keyed by the same (fingerprint, solver identity) pair as
	// the engine's result cache, so the two layers can never disagree about
	// what counts as "the same request".
	inflight map[cacheKey]*call

	leads atomic.Uint64
	joins atomic.Uint64
}

// call is one in-flight solve other requests can park on.
type call struct {
	done    chan struct{}
	joiners int
	sol     *core.Solution // set before done closes iff joiners > 0; never mutated after
	err     error
}

// CoalesceStats is a snapshot of a Coalescer's counters: Leads counts calls
// that ran the engine (the first arrival for their key), Joins counts calls
// answered by parking on another call's in-flight solve.
type CoalesceStats struct {
	Leads uint64 `json:"leads" metric:"svgicd_coalesce_leads_total" help:"Coalesced flights that ran the engine."`
	Joins uint64 `json:"joins" metric:"svgicd_coalesce_joins_total" help:"Requests answered by joining an in-flight solve."`
}

// NewCoalescer wraps an engine with request coalescing. The engine may be
// shared with direct callers; only calls routed through the coalescer are
// collapsed.
func NewCoalescer(e *Engine) *Coalescer {
	return &Coalescer{e: e, inflight: make(map[cacheKey]*call)}
}

// Stats returns a point-in-time snapshot of the coalescing counters.
func (c *Coalescer) Stats() CoalesceStats {
	return CoalesceStats{Leads: c.leads.Load(), Joins: c.joins.Load()}
}

// Solve answers one instance with the engine's default solver, collapsing it
// into an identical in-flight call when one exists. See SolveWith.
func (c *Coalescer) Solve(ctx context.Context, in *core.Instance) (*core.Solution, error) {
	return c.solve(ctx, in, nil)
}

// SolveWith answers one instance with the given solver, coalescing only with
// in-flight calls of the same instance AND same solver identity. A solver
// without core.CacheKeyer has no parameter-precise identity, so it bypasses
// coalescing (the call leads unconditionally) rather than risk answering one
// parameterization's crowd with another's result. The returned solution is
// always private to the caller (the leader gets the engine's copy, followers
// get deep copies of the leader's result). Validation is the engine's: the
// key is total on any input, and an invalid leader fails fast in the engine
// with the same error a direct call would see.
func (c *Coalescer) SolveWith(ctx context.Context, in *core.Instance, solver core.Solver) (*core.Solution, error) {
	if solver == nil {
		return nil, errors.New("engine: Coalescer.SolveWith requires a solver (use Solve for the default)")
	}
	return c.solve(ctx, in, solver)
}

func (c *Coalescer) solve(ctx context.Context, in *core.Instance, solver core.Solver) (*core.Solution, error) {
	if solver != nil && !keyedSolver(solver) {
		c.leads.Add(1)
		return c.e.solve(ctx, in, solver, nil)
	}
	key := cacheKey{fp: core.Fingerprint(in), solver: c.e.solverKeyFor(solver)}
	for {
		c.mu.Lock()
		if cl, ok := c.inflight[key]; ok {
			cl.joiners++
			c.mu.Unlock()
			c.joins.Add(1)
			select {
			case <-cl.done:
				if cl.err != nil {
					// The leader's context failure is the leader's, not ours:
					// with a still-live context, go around — lead a fresh
					// flight or join a newer one. One dead client must not
					// fail the whole crowd.
					if isContextErr(cl.err) && ctx.Err() == nil {
						continue
					}
					return nil, cl.err
				}
				// cl.sol is immutable once done is closed; every follower
				// clones it so results stay independently mutable.
				return cl.sol.Clone(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		cl := &call{done: make(chan struct{})}
		c.inflight[key] = cl
		c.mu.Unlock()
		c.leads.Add(1)

		sol, err := c.e.solve(ctx, in, solver, &key)

		// Unregister first: arrivals from here on start a fresh flight (and
		// hit the engine's result cache if this one succeeded). The joiner
		// count is frozen by the same lock, so cloning only when someone
		// actually waits is race-free.
		c.mu.Lock()
		delete(c.inflight, key)
		joiners := cl.joiners
		c.mu.Unlock()

		cl.err = err
		if err == nil && joiners > 0 {
			cl.sol = sol.Clone()
		}
		close(cl.done)
		return sol, err
	}
}

// isContextErr reports whether err is a context cancellation or deadline
// failure (possibly wrapped).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// SolveBatch answers a batch through the coalescing path with the default
// solver: each instance is solved concurrently via Solve, so duplicates
// inside the batch — and across concurrent batches — collapse too. Results
// are positional; the error joins the per-instance failures like
// Engine.SolveBatch.
func (c *Coalescer) SolveBatch(ctx context.Context, ins []*core.Instance) ([]*core.Solution, error) {
	return c.SolveBatchEach(ctx, ins, nil)
}

// SolveBatchEach is SolveBatch with a per-item solver selection: solvers is
// either nil (every item uses the engine default) or positional with ins
// (nil entries use the default). The server's mixed-algorithm batches route
// through here. Each call counts as one engine batch, as
// Engine.SolveBatchEach does.
func (c *Coalescer) SolveBatchEach(ctx context.Context, ins []*core.Instance, solvers []core.Solver) ([]*core.Solution, error) {
	if solvers != nil && len(solvers) != len(ins) {
		return nil, fmt.Errorf("engine: %d solvers for %d instances", len(solvers), len(ins))
	}
	sols := make([]*core.Solution, len(ins))
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	for i, in := range ins {
		i, in := i, in
		var solver core.Solver
		if solvers != nil {
			solver = solvers[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sols[i], errs[i] = c.solve(ctx, in, solver)
		}()
	}
	wg.Wait()
	c.e.batches.Add(1)
	return sols, errors.Join(errs...)
}
