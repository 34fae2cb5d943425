// Package engine provides the concurrent batch-solving layer over the SVGIC
// solvers: a fixed worker pool that splits every incoming instance into the
// connected components of its social network (when the solver is
// decomposition-safe), solves the components in parallel, merges the
// per-component solutions back (objective-preserving, see
// core.ComponentDecompose) and memoizes whole-instance solutions behind an
// LRU cache keyed by instance fingerprint AND solver identity.
//
// The engine is the serving-path counterpart of a bare core.Solver: where
// Solver.Solve answers one group on the caller's goroutine, an Engine
// answers many groups at once on a bounded number of goroutines, under
// context cancellation and deadlines, with latency, cache, coalescing and
// per-algorithm counters. Every registered solver can be used per request
// via SolveWith; the cache key incorporates the solver's cache key, so AVG
// and AVG-D results (or one algorithm under two parameterizations) never
// alias.
//
// Every call takes one path: validate, fingerprint, then answer from the
// cache, join an identical solve already in flight, or lead one. The first
// two steps are the instance's own, not the call's: Prepare does them once,
// and SolvePrepared runs the same path without them, so a caller holding an
// instance that never changes (the server's decode memo) pays them only
// when it first sees the instance. Session instances change in place, so
// sessions call SolveWith, which redoes both on every call (an unkeyed
// solver needs no fingerprint). The LRU cache only helps after the first
// solve of an instance completes; under a flash crowd (N identical requests
// arriving inside one solve's latency) the first arrival leads, the rest
// park on its flight, and the leader's solution fans out to them as deep
// copies, so the solver runs once and every caller may mutate its
// configuration freely. A joiner's own context bounds its wait; if the
// leader fails with its own context error while the joiner's context is
// live, the joiner goes around again rather than inherit an error that was
// never its own.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/svgic/svgic/internal/core"
)

// DefaultCacheSize is the LRU capacity used when Options.CacheSize is zero.
const DefaultCacheSize = 256

// ErrClosed is returned by Solve and SolveBatch after Close.
var ErrClosed = errors.New("engine: closed")

// Options configures an Engine.
type Options struct {
	// Workers is the number of solver goroutines in the pool.
	// Zero means GOMAXPROCS.
	Workers int
	// NewSolver returns the engine's default solver, called once per worker.
	// Solvers must be safe for concurrent use (core.Solver's contract); the
	// per-worker instantiation additionally isolates any implementation that
	// cheats. Nil means deterministic AVG-D with default options.
	NewSolver func() core.Solver
	// CacheSize bounds the (fingerprint, solver)-keyed result cache: zero
	// means DefaultCacheSize, negative disables caching (identical concurrent
	// calls still coalesce). Cached solutions are returned as deep copies, so
	// callers may mutate results freely.
	CacheSize int
	// SolveObserver, when set, receives the display name and wall time of
	// every solve that ran a solver to completion (cache hits, cancels and
	// errors are not observed — they carry no solver wall time). Called
	// synchronously on the solving caller's goroutine, so it must be cheap
	// and safe for concurrent use; svgicd wires it into the telemetry
	// tracker's per-algorithm latency series.
	SolveObserver func(algo string, wall time.Duration)
}

// AlgoStats is the per-algorithm slice of Stats: every terminated Solve call
// lands in its solver's bucket, and the global buckets are their sums.
type AlgoStats struct {
	Solves    uint64 `json:"solves" metric:"svgicd_engine_algo_solves_total" help:"Solve requests per algorithm."`
	CacheHits uint64 `json:"cacheHits" metric:"svgicd_engine_algo_cache_hits_total" help:"Cache hits per algorithm."`
	Solved    uint64 `json:"solved"`
	Canceled  uint64 `json:"canceled"`
	Errors    uint64 `json:"errors" metric:"svgicd_engine_algo_errors_total" help:"Failed solves per algorithm."`
	// TotalLatency sums the wall time of the Solved bucket; AvgLatencyMS is
	// its mean, as in Stats.
	TotalLatency time.Duration `json:"-"`
	AvgLatencyMS float64       `json:"avgLatencyMs"`
}

// Stats is a snapshot of an Engine's counters.
//
// Every Solve call that passes validation and does not join an identical
// in-flight solve ends in exactly one of four buckets, so the identity
//
//	Solves == CacheHits + Solved + Canceled + Errors
//
// holds globally and per algorithm (asserted under -race by the engine
// stress test); joins are counted in CoalesceStats.Joins alone. Calls
// rejected before admission — validation failures and calls on an
// already-closed engine — touch no counters at all. Errors
// counts solves failed by a component solver or by a mid-flight Close;
// retries of errored solves miss the cache again. The metric tags name the
// svgicd /metrics family of each exported counter (see server/metrics.go).
type Stats struct {
	Solves           uint64 `json:"solves" metric:"svgicd_engine_solves_total" help:"Solve calls that joined no in-flight solve: cache hits, solved, canceled and errors."`
	Batches          uint64 `json:"batches" metric:"svgicd_engine_batches_total" help:"Batch solve calls."`
	ComponentsSolved uint64 `json:"componentsSolved" metric:"svgicd_engine_components_solved_total" help:"Independently solved social-network components."`
	CacheHits        uint64 `json:"cacheHits" metric:"svgicd_engine_cache_hits_total" help:"Solves answered from the result cache."`
	CacheMisses      uint64 `json:"cacheMisses" metric:"svgicd_engine_cache_misses_total" help:"Result-cache misses."`
	Solved           uint64 `json:"solved" metric:"svgicd_engine_solved_total" help:"Solves completed by running a solver."`
	Canceled         uint64 `json:"canceled" metric:"svgicd_engine_canceled_total" help:"Solves canceled by context."`
	Errors           uint64 `json:"errors" metric:"svgicd_engine_errors_total" help:"Solves that failed."`
	// TotalLatency sums the wall time of the Solved bucket; AvgLatencyMS is
	// its mean in milliseconds, truncated to the microsecond. Cache hits are
	// excluded, so a warm cache does not flatter the solver.
	TotalLatency time.Duration `json:"-"`
	AvgLatencyMS float64       `json:"avgLatencyMs"`
	Workers      int           `json:"workers" metric:"svgicd_engine_workers" help:"Solver worker pool size."`
	// PerAlgorithm splits the terminal buckets by solver display name
	// (e.g. "AVG-D"), so a mixed-algorithm serving workload is observable
	// per algorithm.
	PerAlgorithm map[string]AlgoStats `json:"perAlgorithm,omitempty" metric:",algo"`
	// CoalesceStats is served as its own /v1/stats section, not under the
	// engine's.
	CoalesceStats `json:"-"`
}

// CoalesceStats is the coalescing slice of Stats. Leads counts the calls
// that did not join a flight; it is read from Solves, since every such call
// ends in exactly one of the four buckets. Joins counts calls answered by
// parking on another call's in-flight solve; a join lands in no Solves
// bucket, so every admitted call is counted once in Solves + Joins (a
// joiner that goes around after its leader's cancellation counts again
// where its retry ends).
type CoalesceStats struct {
	Leads uint64 `json:"leads" metric:"svgicd_coalesce_leads_total" help:"Solve calls that joined no in-flight solve (equals svgicd_engine_solves_total)."`
	Joins uint64 `json:"joins" metric:"svgicd_coalesce_joins_total" help:"Requests answered by joining an in-flight solve."`
}

// avgMS is the mean of total over n in milliseconds, truncated to the
// microsecond; zero when n is zero.
func avgMS(total time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64((total / time.Duration(n)).Microseconds()) / 1000
}

// task is one component subproblem handed to the pool. A nil solver means
// "use the worker's default solver".
type task struct {
	ctx    context.Context
	in     *core.Instance
	solver core.Solver
	done   func(*core.Solution, error)
}

// SolverKey returns the caching identity of a solver: its CacheKey when it
// implements core.CacheKeyer (registry-built solvers do), its Name
// otherwise. The cache key, which also keys the flights, pairs it with the
// instance fingerprint.
func SolverKey(s core.Solver) string {
	if ck, ok := s.(core.CacheKeyer); ok {
		return ck.CacheKey()
	}
	return s.Name()
}

// keyedSolver reports whether the solver carries a parameter-precise cache
// identity. The engine's default solver is always keyed (its parameters are
// fixed for the engine's lifetime, so even a bare Name cannot alias); a
// per-request solver without core.CacheKeyer is NOT — two AVG-D instances
// with different size caps share one Name — so such solvers run directly,
// with no cache entry and no flight, rather than risk serving one
// parameterization's result for another.
func keyedSolver(s core.Solver) bool {
	_, ok := s.(core.CacheKeyer)
	return ok
}

// decomposeSafe reports whether the solver declares component decomposition
// result-preserving. Unknown solvers are conservatively solved whole.
func decomposeSafe(s core.Solver) bool {
	if ds, ok := s.(core.ComponentSafe); ok {
		return ds.DecomposeSafe()
	}
	return false
}

// Uncached strips a solver down to the bare Solver interface: no CacheKeyer,
// no ComponentSafe. The engine then solves the instance whole, with no cache
// entry and no flight, so the call never coalesces. Warm-started repair
// solvers ride through here — their results depend on a session's incumbent
// configuration (not just the instance fingerprint), so serving them from a
// keyed cache or another call's flight would alias distinct incumbents, and
// the caller has already decomposed to the component it wants solved.
type Uncached struct {
	S core.Solver
}

// Name implements core.Solver.
func (u Uncached) Name() string { return u.S.Name() }

// Solve implements core.Solver.
func (u Uncached) Solve(ctx context.Context, in *core.Instance) (*core.Solution, error) {
	return u.S.Solve(ctx, in)
}

// Engine is a concurrent batch solver. Create with New, release with Close.
// All methods are safe for concurrent use; Solve and SolveBatch may be called
// from any number of goroutines and share the worker pool fairly at component
// granularity. A Solve racing Close returns ErrClosed (or a partial
// "component" error) — it never panics.
type Engine struct {
	workers       int
	defaultWhole  bool // resolved decomposition decision for the default solver
	defaultSolver core.Solver
	defaultKey    string
	tasks         chan task
	done          chan struct{} // closed by Close; unblocks submitters and workers
	wg            sync.WaitGroup
	cache         *lruCache // results and the flights of keyed solves
	closeOnce     sync.Once
	closed        atomic.Bool

	batches     atomic.Uint64
	components  atomic.Uint64
	cacheMisses atomic.Uint64
	joins       atomic.Uint64

	// algoMu guards the per-algorithm buckets, the only record of each
	// solve's outcome; Stats sums them into the global counters.
	algoMu sync.Mutex
	algos  map[string]*AlgoStats

	observer func(algo string, wall time.Duration)
}

// New starts an Engine with its worker pool running.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	newSolver := opts.NewSolver
	if newSolver == nil {
		newSolver = func() core.Solver { return &core.AVGDSolver{} }
	}
	solvers := make([]core.Solver, workers)
	for w := range solvers {
		solvers[w] = newSolver()
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	e := &Engine{
		workers:       workers,
		defaultWhole:  !decomposeSafe(solvers[0]),
		defaultSolver: solvers[0],
		defaultKey:    SolverKey(solvers[0]),
		tasks:         make(chan task),
		done:          make(chan struct{}),
		cache:         newLRUCache(max(cacheSize, 0)),
		algos:         make(map[string]*AlgoStats),
		observer:      opts.SolveObserver,
	}
	e.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go e.worker(solvers[w])
	}
	return e
}

// worker drains the task channel until Close, running each task with its own
// solver or, when the task carries none, the worker's default instance.
func (e *Engine) worker(def core.Solver) {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case t := <-e.tasks:
			if err := t.ctx.Err(); err != nil {
				t.done(nil, err)
				continue
			}
			solver := t.solver
			if solver == nil {
				solver = def
			}
			sol, err := solver.Solve(t.ctx, t.in)
			t.done(sol, err)
		}
	}
}

// Close shuts the worker pool down: components already on a worker run to
// completion, unsubmitted ones fail their Solve with ErrClosed, and later
// Solve/SolveBatch calls return ErrClosed. Close is idempotent and safe to
// race with in-flight calls.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		close(e.done)
		e.wg.Wait()
	})
}

// Stats returns a point-in-time snapshot of the counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Batches:          e.batches.Load(),
		ComponentsSolved: e.components.Load(),
		CacheMisses:      e.cacheMisses.Load(),
		Workers:          e.workers,
	}
	e.algoMu.Lock()
	if len(e.algos) > 0 {
		st.PerAlgorithm = make(map[string]AlgoStats, len(e.algos))
		for name, a := range e.algos {
			st.Solves += a.Solves
			st.CacheHits += a.CacheHits
			st.Solved += a.Solved
			st.Canceled += a.Canceled
			st.Errors += a.Errors
			st.TotalLatency += a.TotalLatency
			a := *a
			a.AvgLatencyMS = avgMS(a.TotalLatency, a.Solved)
			st.PerAlgorithm[name] = a
		}
	}
	e.algoMu.Unlock()
	st.AvgLatencyMS = avgMS(st.TotalLatency, st.Solved)
	st.Leads, st.Joins = st.Solves, e.joins.Load()
	return st
}

// terminal buckets for counter accounting.
type outcome int

const (
	outcomeCacheHit outcome = iota
	outcomeSolved
	outcomeCanceled
	outcomeErrored
)

// record lands one terminated Solve call in exactly one bucket of its
// algorithm, keeping the counter identity intact.
func (e *Engine) record(algo string, o outcome, latency time.Duration) {
	e.algoMu.Lock()
	a := e.algos[algo]
	if a == nil {
		a = &AlgoStats{}
		e.algos[algo] = a
	}
	a.Solves++
	switch o {
	case outcomeCacheHit:
		a.CacheHits++
	case outcomeSolved:
		a.Solved++
		a.TotalLatency += latency
	case outcomeCanceled:
		a.Canceled++
	case outcomeErrored:
		a.Errors++
	}
	e.algoMu.Unlock()
	if e.observer != nil && o == outcomeSolved {
		e.observer(algo, latency)
	}
}

// Solve answers one instance with the engine's default solver. See SolveWith.
func (e *Engine) Solve(ctx context.Context, in *core.Instance) (*core.Solution, error) {
	return e.solve(ctx, in, 0, false, nil)
}

// DefaultSolver returns the engine's default solver instance — what Solve
// runs when no per-request solver is supplied. Callers that derive variants
// of the default (e.g. warm-started repair solvers via core.WarmStarter)
// start from here. The returned solver is shared and must not be mutated.
func (e *Engine) DefaultSolver() core.Solver {
	return e.defaultSolver
}

// SolveWith answers one instance with the given solver (any core.Solver —
// typically a registry-built one; nil means the engine default): it
// validates the instance on every call and, for a keyed solver,
// fingerprints it and looks the result up under the (fingerprint,
// solver-key) pair, else joins an identical in-flight call or leads one —
// component decomposition when the solver declares it safe, concurrent
// component solves on the shared pool, merge, cache fill. A solver that
// does not implement core.CacheKeyer has no parameter-precise identity and
// therefore bypasses the result cache and coalescing (every call solves,
// and no fingerprint is computed); registry-built solvers are always keyed.
// The solver must be safe for concurrent use: decomposed components run it
// from several workers at once. The context bounds the call — cancellation
// abandons components that have not started (a component already on a
// worker runs to completion but its result is discarded) and ends a wait on
// another call's flight. The returned solution is always private to the
// caller. SolvePrepared is the same call for an instance Prepare has
// already validated and fingerprinted.
func (e *Engine) SolveWith(ctx context.Context, in *core.Instance, solver core.Solver) (*core.Solution, error) {
	return e.solve(ctx, in, 0, false, solver)
}

// Prepared is an instance the engine has validated and fingerprinted once,
// for SolvePrepared. Only Prepare makes one.
type Prepared struct {
	in *core.Instance
	fp uint64 // core.Fingerprint(in)
}

// Prepare validates in and computes its core.Fingerprint, so that every
// later SolvePrepared of it skips both. The Prepared value takes in over
// without a copy: the caller must never mutate in again. Session instances,
// which change in place, go through SolveWith instead.
func Prepare(in *core.Instance) (Prepared, error) {
	if err := in.Validate(); err != nil {
		return Prepared{}, err
	}
	//lint:ignore cloneescape ownership transfer: the caller hands over an instance it never mutates again (the server's freshly decoded /v1/solve bodies); a copy would cost every miss an instance's allocations
	return Prepared{in: in, fp: core.Fingerprint(in)}, nil
}

// SolvePrepared is SolveWith for a prepared instance: the same admission,
// counters, cache key and flights, without validating or fingerprinting
// the instance again.
func (e *Engine) SolvePrepared(ctx context.Context, p Prepared, solver core.Solver) (*core.Solution, error) {
	return e.solve(ctx, p.in, p.fp, true, solver)
}

// solve is every solve path's body: admission, then the cache-or-flight
// loop for keyed solvers. A prepared call (Prepare has validated in and
// computed its fingerprint fp) skips both steps; any other call validates
// here and fingerprints once it knows the solver is keyed. A nil solver
// means the default.
func (e *Engine) solve(ctx context.Context, in *core.Instance, fp uint64, prepared bool, solver core.Solver) (*core.Solution, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if !prepared {
		if err := in.Validate(); err != nil {
			return nil, err
		}
	}
	algo, whole, id := e.defaultSolver.Name(), e.defaultWhole, e.defaultKey
	if solver != nil {
		algo, whole = solver.Name(), !decomposeSafe(solver)
	}
	// Dead-on-arrival requests: don't pay the O(n·m + |E|·m) fingerprint of
	// an unprepared instance or touch the cache counters for a call that
	// cannot run.
	if err := ctx.Err(); err != nil {
		e.record(algo, outcomeCanceled, 0)
		return nil, err
	}
	if solver != nil {
		if !keyedSolver(solver) {
			return e.run(ctx, in, solver, algo, whole)
		}
		id = SolverKey(solver)
	}
	if !prepared {
		fp = core.Fingerprint(in)
	}
	key := cacheKey{fp: fp, solver: id}
	for {
		hit, f, lead := e.cache.lookup(key)
		if hit != nil {
			e.record(algo, outcomeCacheHit, 0)
			return hit, nil
		}
		if lead {
			if e.cache.cap > 0 {
				e.cacheMisses.Add(1)
			}
			sol, err := e.run(ctx, in, solver, algo, whole)
			e.cache.land(key, f, sol, err)
			return sol, err
		}
		e.joins.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err == nil {
			// f.sol is immutable once done is closed; every joiner clones it
			// so results stay independently mutable.
			return f.sol.Clone(), nil
		}
		// The leader's context failure is the leader's, not ours: with a
		// still-live context, go around — lead a fresh flight or join a
		// newer one. One dead client must not fail the whole crowd.
		if !isContextErr(f.err) || ctx.Err() != nil {
			return nil, f.err
		}
	}
}

// isContextErr reports whether err is a context cancellation or deadline
// failure (possibly wrapped).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// run solves one admitted call on the pool and lands it in exactly one of the
// Errors, Canceled and Solved buckets of algo.
func (e *Engine) run(ctx context.Context, in *core.Instance, solver core.Solver, algo string, whole bool) (*core.Solution, error) {
	start := time.Now()
	subs := []*core.Instance{in}
	var origs [][]int
	if !whole {
		subs, origs = core.ComponentDecompose(in)
	}
	parts := make([]*core.Solution, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		i := i
		wg.Add(1)
		t := task{ctx: ctx, in: sub, solver: solver, done: func(sol *core.Solution, err error) {
			parts[i], errs[i] = sol, err
			wg.Done()
		}}
		select {
		case e.tasks <- t:
		case <-ctx.Done():
			wg.Done()
			errs[i] = ctx.Err()
		case <-e.done:
			wg.Done()
			errs[i] = ErrClosed
		}
	}
	wg.Wait()
	// Real solver errors win over concurrent cancellation/shutdown: a caller
	// retrying a context error must not be hiding a deterministic failure.
	var ctxErr, closedErr error
	for i, err := range errs {
		switch {
		case err == nil:
		case isContextErr(err):
			ctxErr = err
		case errors.Is(err, ErrClosed):
			closedErr = err
		default:
			e.record(algo, outcomeErrored, 0)
			return nil, fmt.Errorf("engine: component %d: %w", i, err)
		}
	}
	if ctxErr != nil {
		e.record(algo, outcomeCanceled, 0)
		return nil, ctxErr
	}
	if closedErr != nil {
		e.record(algo, outcomeErrored, 0)
		return nil, ErrClosed
	}
	e.components.Add(uint64(len(subs)))

	sol := parts[0]
	if len(subs) > 1 {
		sol = core.MergeSolutions(in, parts, origs)
	}
	sol.Wall = time.Since(start)
	e.record(algo, outcomeSolved, sol.Wall)
	return sol, nil
}

// SolveBatch answers a batch of instances concurrently with the default
// solver, sharing the worker pool at component granularity, and returns one
// solution per instance in input order. Duplicates inside the batch, and
// across concurrent calls, coalesce like any other call. On error the slice
// still carries every solution that completed (nil for the failures) and the
// error joins the per-instance failures.
func (e *Engine) SolveBatch(ctx context.Context, ins []*core.Instance) ([]*core.Solution, error) {
	return e.SolveBatchEach(ctx, ins, nil)
}

// SolveBatchEach is SolveBatch with a per-item solver selection: solvers is
// either nil (every item uses the engine default) or positional with ins
// (nil entries use the default). The server's mixed-algorithm batches route
// through here.
func (e *Engine) SolveBatchEach(ctx context.Context, ins []*core.Instance, solvers []core.Solver) ([]*core.Solution, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
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
			sols[i], errs[i] = e.solve(ctx, in, 0, false, solver)
		}()
	}
	wg.Wait()
	e.batches.Add(1)
	return sols, errors.Join(errs...)
}
