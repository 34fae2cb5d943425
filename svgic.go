// Package svgic is a Go library for Social-aware VR Group-Item Configuration
// (SVGIC): given a group of VR shoppers with a social network, per-user item
// preferences and per-pair social utilities, it computes an SAVG
// k-Configuration — which item each user sees at each of k display slots —
// that balances personal preference against the social utility of
// co-displaying common items to subgroups of friends.
//
// It is a faithful reproduction of "Optimizing Item and Subgroup
// Configurations for Social-Aware VR Shopping" (Ko et al., PVLDB 2020):
//
//   - AVG — the paper's randomized 4-approximation: an LP relaxation solved
//     by a built-in structured solver (or an exact simplex), rounded by
//     Co-display Subgroup Formation (CSF) with the advanced focal-parameter
//     sampling scheme.
//   - AVG-D — the derandomized, deterministic 4-approximation.
//   - SVGIC-ST — the extension with subgroup size caps and teleportation-
//     discounted indirect co-display.
//   - The comparison schemes (personalized, group, subgroup-by-friendship,
//     subgroup-by-preference) and an exact branch-and-bound IP solver.
//   - Section 5's practical extensions: commodity values, slot significance,
//     multi-view display, group-wise social models, subgroup-change
//     smoothing and dynamic join/leave.
//
// # Quick start
//
// Every algorithm is a Solver — Solve(ctx, in) returning a rich *Solution
// (configuration + utility report + algorithm name, LP/rounding stats,
// decomposition info and wall time) — and every algorithm is registered by
// name, so the choice of algorithm can be data:
//
//	g := svgic.NewGraph(2)
//	g.AddMutualEdge(0, 1)
//	in := svgic.NewInstance(g, 3 /* items */, 2 /* slots */, 0.5 /* λ */)
//	in.SetPref(0, 0, 1.0)
//	in.SetPref(1, 0, 0.8)
//	_ = in.SetTau(0, 1, 0, 0.5)
//	_ = in.SetTau(1, 0, 0, 0.5)
//	s, err := svgic.NewSolver("avgd", nil) // or svgic.Params{"r": 1.0}
//	if err != nil { ... }
//	sol, err := s.Solve(ctx, in)
//	if err != nil { ... }
//	fmt.Println(sol.Algorithm, sol.Report.Scaled(), sol.Wall)
//
// Solvers honour their context — a canceled ctx stops the LP/rounding
// pipeline at phase boundaries and the exact IP between branch-and-bound
// nodes. SolverNames/Solvers/LookupSolver enumerate the registry ("avg",
// "avgd", "per", "fmg", "sdp", "grf", "ip"); RegisterSolver extends it, and
// new entries are immediately reachable from the CLIs and the HTTP API.
// Typed constructors (AVGD, Personalized, ExactIP, ...) remain for callers
// that want compile-time options.
//
// # Serving many groups
//
// Engine is the concurrent batch-solving layer: it splits instances into the
// connected components of their social networks, solves components in
// parallel on a worker pool under context cancellation, merges the parts
// back (objective-preserving), memoizes repeated instances behind a
// fingerprint-keyed LRU cache and runs identical concurrent calls once.
// See NewEngine.
//
// # Serving over the network
//
// Command svgicd (cmd/svgicd, backed by internal/server) puts the engine
// behind HTTP: POST /v1/solve, /v1/solve/batch and /v1/evaluate speak the
// InstanceJSON interchange schema with strict decoding (unknown fields are
// rejected, never dropped), an optional per-request "algo" + "params"
// selection resolving any registered solver (GET /v1/algorithms lists them
// with parameter schemas), bounded in-flight admission control (429 +
// Retry-After under overload), per-request deadlines (?timeout=...), the
// engine's request coalescing keyed on (instance fingerprint, solver
// identity) for flash crowds, and graceful drain on shutdown. GET /healthz
// and /v1/stats expose liveness and the engine/admission/coalescing
// counters, split per algorithm. Command svgicload is its load generator:
// it launches svgicd as a child and drives it (optionally mixing algorithms
// with -algo avgd,per,avg).
//
// # Live sessions
//
// The dynamic scenario (Extension F) is a first-class serving path: a
// SessionManager holds ID-keyed, versioned live stores, each wrapping a
// DynamicSession mutated by typed JSON events (join, leave,
// updatePreference, rebalance) under a serializing lock, with bounded
// admission, TTL idle eviction and background drift repair — periodic full
// re-solves through the Engine, atomically swapped in when they beat the
// incrementally maintained configuration. svgicd serves the same manager
// under /v1/sessions; cmd/datagen -events emits replayable traces and
// `svgicload -dynamic` drives churn against the endpoints. See
// NewSessionManager.
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// reproduction of the paper's evaluation, the engine demo, the serving
// layer and the CI lanes.
package svgic

import (
	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/graph"
	"github.com/svgic/svgic/internal/lp"
	"github.com/svgic/svgic/internal/utility"
)

// Core problem types (aliases into the implementation package so the full
// method sets are available on the public names).
type (
	// Instance is one SVGIC problem: social network, items, slots, λ and
	// the p / τ utilities.
	Instance = core.Instance
	// Configuration is an SAVG k-Configuration (user × slot → item).
	Configuration = core.Configuration
	// Report decomposes a configuration's objective value.
	Report = core.Report
	// Factors is a fractional LP solution in condensed form.
	Factors = core.Factors
	// Solver is the common interface of all configuration algorithms:
	// Solve(ctx, in) returning a rich *Solution. Implementations must honour
	// the context and be safe for concurrent use.
	Solver = core.Solver
	// RoundingStats describes what AVG/AVG-D's rounding phase did.
	RoundingStats = core.RoundingStats
	// AVGOptions configures the randomized AVG solver.
	AVGOptions = core.AVGOptions
	// AVGDOptions configures the deterministic AVG-D solver.
	AVGDOptions = core.AVGDOptions
	// SubgroupMetrics aggregates per-slot partition statistics.
	SubgroupMetrics = core.SubgroupMetrics
	// MultiViewConfig is a multi-view display configuration (Extension C).
	MultiViewConfig = core.MultiViewConfig
	// DynamicSession supports dynamic user join/leave (Extension F).
	DynamicSession = core.DynamicSession
	// FriendTie carries the per-item social utilities between a joining user
	// and one standing friend (Out = newcomer→friend, In = friend→newcomer).
	FriendTie = core.FriendTie
	// FriendTies maps a standing user's id to a joining user's declared ties.
	FriendTies = core.FriendTies
	// Graph is the directed social network substrate.
	Graph = graph.Graph
	// LPOptions tunes the structured LP relaxation solver.
	LPOptions = lp.RelaxOptions
	// UtilityParams shapes the synthetic utility generator.
	UtilityParams = utility.Params
)

// Unassigned marks an empty display unit in a partial configuration.
const Unassigned = core.Unassigned

// DefaultR is AVG-D's balancing ratio with the proven 4-approximation.
const DefaultR = core.DefaultR

// LP modes for AVG/AVG-D's relaxation phase.
const (
	// LPStructured solves the condensed relaxation with the scalable
	// structured solver (default).
	LPStructured = core.LPStructured
	// LPSimplexCondensed solves the condensed relaxation exactly (small
	// models only).
	LPSimplexCondensed = core.LPSimplexCondensed
	// LPSimplexFull solves the full per-slot relaxation exactly (ablation).
	LPSimplexFull = core.LPSimplexFull
)

// NewGraph returns an empty directed social network over n users.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewInstance returns an SVGIC instance with all-zero utilities over the
// given social network, numItems items, k display slots and social weight
// lambda ∈ [0,1].
func NewInstance(g *Graph, numItems, k int, lambda float64) *Instance {
	return core.NewInstance(g, numItems, k, lambda)
}

// NewConfiguration returns an all-Unassigned configuration (n users × k
// slots), useful for building configurations by hand.
func NewConfiguration(n, k int) *Configuration { return core.NewConfiguration(n, k) }

// Evaluate scores a configuration under plain SVGIC (Definition 3).
func Evaluate(in *Instance, conf *Configuration) Report { return core.Evaluate(in, conf) }

// EvaluateST scores a configuration under SVGIC-ST semantics: indirect
// co-display (same item, different slots) earns dtel·τ (Definition 5).
func EvaluateST(in *Instance, conf *Configuration, dtel float64) Report {
	return core.EvaluateST(in, conf, dtel)
}

// ComputeSubgroupMetrics derives the subgroup-structure statistics of the
// paper's Section 6.5 from a configuration.
func ComputeSubgroupMetrics(in *Instance, conf *Configuration) SubgroupMetrics {
	return core.ComputeSubgroupMetrics(in, conf)
}

// RegretRatios returns each user's regret ratio reg(u) = 1 − hap(u).
func RegretRatios(in *Instance, conf *Configuration) []float64 {
	return core.RegretRatios(in, conf)
}

// UserUtility returns one user's SAVG utility under a configuration.
func UserUtility(in *Instance, conf *Configuration, u int) float64 {
	return core.UserUtility(in, conf, u)
}

// WeightedInstance scales every item's utilities by commodity values
// (Extension A); run any solver on the result to maximize expected profit.
func WeightedInstance(in *Instance, weight []float64) *Instance {
	return core.WeightedInstance(in, weight)
}

// EvaluateWithSlotWeights scores a configuration with per-slot significance
// weights (Extension B).
func EvaluateWithSlotWeights(in *Instance, conf *Configuration, gamma []float64) float64 {
	return core.EvaluateWithSlotWeights(in, conf, gamma)
}

// OptimizeSlotOrder permutes slots globally so the most valuable slots land
// on the most significant positions (Extension B); value-neutral under
// plain SVGIC.
func OptimizeSlotOrder(in *Instance, conf *Configuration, gamma []float64) *Configuration {
	return core.OptimizeSlotOrder(in, conf, gamma)
}

// GreedyMVD extends a configuration to multi-view display with up to beta
// views per slot (Extension C).
func GreedyMVD(in *Instance, base *Configuration, beta int) *MultiViewConfig {
	return core.GreedyMVD(in, base, beta)
}

// EvaluateMVD scores a multi-view configuration.
func EvaluateMVD(in *Instance, mv *MultiViewConfig) Report { return core.EvaluateMVD(in, mv) }

// StabilizeSubgroups reorders slots to minimize subgroup churn between
// consecutive slots (Extension E), returning the new configuration and its
// edit distance.
func StabilizeSubgroups(in *Instance, conf *Configuration) (*Configuration, int) {
	return core.StabilizeSubgroups(in, conf)
}

// SubgroupEditDistance is the total partition edit distance between
// consecutive slots.
func SubgroupEditDistance(in *Instance, conf *Configuration) int {
	return core.SubgroupEditDistance(in, conf)
}

// NewDynamicSession starts a dynamic join/leave session (Extension F) from a
// solved configuration; cap > 0 enforces the SVGIC-ST subgroup size bound.
func NewDynamicSession(in *Instance, conf *Configuration, cap int) (*DynamicSession, error) {
	return core.NewDynamicSession(in, conf, cap)
}

// DatasetName identifies a built-in synthetic dataset profile.
type DatasetName = datasets.Name

// Built-in dataset profiles emulating the paper's evaluation datasets.
const (
	Timik    = datasets.Timik
	Epinions = datasets.Epinions
	Yelp     = datasets.Yelp
)

// GenerateDataset builds a synthetic SVGIC instance from one of the built-in
// dataset profiles (see internal/datasets for the calibration notes).
func GenerateDataset(name DatasetName, n, m, k int, lambda float64, seed uint64) (*Instance, error) {
	return datasets.Generate(name, n, m, k, lambda, utility.PIERT, seed)
}

// PopulateUtilities fills an instance's p and τ from the synthetic
// PIERT/AGREE/GREE-like generator.
func PopulateUtilities(in *Instance, params UtilityParams, seed uint64) {
	utility.Populate(in, params, seed)
}

// DefaultUtilityParams returns the balanced utility-generator settings.
func DefaultUtilityParams() UtilityParams { return utility.Defaults() }
