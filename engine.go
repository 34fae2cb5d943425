package svgic

import (
	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
)

// Engine is the concurrent batch solver: a fixed worker pool that splits each
// instance into the connected components of its social network (when the
// solver declares decomposition safe), solves the components in parallel
// (the SAVG objective couples users only across social edges, so the merge
// is objective-preserving), and memoizes whole-instance Solutions behind an
// LRU cache keyed by (instance fingerprint, solver identity) — so two
// algorithms, or one algorithm under two parameterizations, never alias.
//
//	eng := svgic.NewEngine(svgic.EngineOptions{Workers: 8})
//	defer eng.Close()
//	sol, err := eng.Solve(ctx, in)             // one group, default solver
//	conf := sol.Config                         // rich Solution envelope
//	sol, err = eng.SolveWith(ctx, in, s)       // any registered solver
//	sols, err := eng.SolveBatch(ctx, batch)    // many groups, shared pool
//	fmt.Println(eng.Stats())                   // global + per-algorithm counters
//
// Every call, session creates included, coalesces: identical concurrent
// calls (same fingerprint, same solver identity) run the solver once and
// each receive a private copy. Per-request solvers are typically
// registry-built (NewSolver); a solver without a parameter-precise cache
// identity (core.CacheKeyer) bypasses the result cache and coalescing
// rather than risk aliasing. With the default deterministic AVG-D solver
// the engine returns exactly the configuration a direct AVG-D solve
// returns — decomposition and concurrency change the wall time, never the
// answer.
type Engine = engine.Engine

// EngineOptions configures NewEngine: Workers (the pool size), NewSolver
// (the per-worker default-solver factory), CacheSize (the result-cache
// bound) and SolveObserver (a hook for every solve's wall time).
type EngineOptions = engine.Options

// EngineStats is a snapshot of an Engine's latency, cache, coalescing and
// per-algorithm counters.
type EngineStats = engine.Stats

// ErrEngineClosed is returned by Engine calls after Close.
var ErrEngineClosed = engine.ErrClosed

// DefaultEngineCacheSize is the result-cache capacity used when
// EngineOptions.CacheSize is zero.
const DefaultEngineCacheSize = engine.DefaultCacheSize

// NewEngine starts an engine with its worker pool running. Release it with
// Close.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// FingerprintInstance returns the 64-bit FNV-1a hash of everything that
// determines a solver's output on the instance (users, items, k, λ,
// preferences, edges and τ). The engine's cache keys on it; it is exported
// for callers building their own memoization or request-coalescing layers.
func FingerprintInstance(in *Instance) uint64 { return core.Fingerprint(in) }

// DecomposeInstance splits an instance into the sub-instances induced by the
// connected components of its social network, together with the original
// user ids of each part (MergeInstanceConfigurations consumes the same
// mapping). Connected instances come back as a one-element identity split.
func DecomposeInstance(in *Instance) ([]*Instance, [][]int) {
	return core.ComponentDecompose(in)
}

// MergeInstanceConfigurations embeds per-part configurations back into a full
// n-user configuration; origs maps each part's rows to original user ids, as
// returned by DecomposeInstance.
func MergeInstanceConfigurations(n, k int, parts []*Configuration, origs [][]int) *Configuration {
	return core.MergeConfigurations(n, k, parts, origs)
}
