package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"github.com/svgic/svgic/internal/lp"
	"github.com/svgic/svgic/internal/stats"
)

// SamplingMode selects AVG's focal-parameter sampling scheme.
type SamplingMode int

const (
	// SamplingAdvanced maintains per-(item,slot) maximum utility factors and
	// samples proportionally to them (paper §4.4, Observation 3), so every
	// accepted draw assigns at least one display unit. Default.
	SamplingAdvanced SamplingMode = iota
	// SamplingOriginal draws (c, s, α) uniformly as in Algorithm 2; most
	// draws are idle for large k. Kept for the Figure 9(b) ablation.
	SamplingOriginal
)

func (m SamplingMode) String() string {
	if m == SamplingOriginal {
		return "original"
	}
	return "advanced"
}

// AVGOptions configures the randomized AVG solver.
type AVGOptions struct {
	Seed     uint64
	LPMode   LPMode
	LP       lp.RelaxOptions
	Sampling SamplingMode
	SizeCap  int // SVGIC-ST subgroup size bound M; 0 disables the cap
	Repeats  int // run the rounding this many times, keep the best (Corollary 4.1); 0/1 = once
	// Warm, when non-nil, is an incumbent configuration to warm-start from:
	// the LP ascent seeds at its indicator point and the result never scores
	// below it (see WarmStarter). Incumbents that fail validation against the
	// instance (or the size cap) are ignored.
	Warm *Configuration
}

// RoundingStats reports what the rounding phase did.
type RoundingStats struct {
	Iterations    int     // focal-parameter draws
	Rejections    int     // advanced-sampling rejections (stale cached weight)
	Idle          int     // draws that assigned nothing (original sampling)
	FallbackUnits int     // units filled by the greedy completion guard
	LPObjective   float64 // objective of the fractional solution used
}

// SolveAVG runs the full AVG pipeline of the paper: solve the LP relaxation,
// then round with Co-display Subgroup Formation. λ=0 degenerates to the exact
// personalized optimum (the paper's trivial special case).
func SolveAVG(in *Instance, opts AVGOptions) (*Configuration, RoundingStats, error) {
	return solveAVG(context.Background(), in, opts)
}

// solveAVG is the context-aware pipeline behind SolveAVG and AVGSolver: the
// context is checked before the LP relaxation, inside it between passes and
// polish steps, between the LP and rounding phases, and between rounding
// repeats.
func solveAVG(ctx context.Context, in *Instance, opts AVGOptions) (*Configuration, RoundingStats, error) {
	if err := in.Validate(); err != nil {
		return nil, RoundingStats{}, err
	}
	if err := validateCap(in, opts.SizeCap); err != nil {
		return nil, RoundingStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, RoundingStats{}, err
	}
	if in.Lambda == 0 && opts.SizeCap == 0 {
		return PersonalizedConfig(in), RoundingStats{}, nil
	}
	warm := validWarm(in, opts.Warm, opts.SizeCap)
	lpOpts := opts.LP
	if warm != nil {
		lpOpts.Warm = warmIndicator(in, warm)
	}
	f, err := solveRelaxation(ctx, in, opts.LPMode, lpOpts)
	if err != nil {
		return nil, RoundingStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, RoundingStats{}, err
	}
	conf, st, err := roundAVG(ctx, in, f, opts)
	if err != nil {
		return nil, RoundingStats{}, err
	}
	if warm != nil {
		conf = betterOf(in, conf, warm)
	}
	return conf, st, nil
}

// RoundAVG rounds a given fractional solution into an SAVG k-Configuration
// with CSF. When opts.Repeats > 1 the rounding is repeated with derived seeds
// and the best configuration under the weighted objective is returned
// (Corollary 4.1).
func RoundAVG(in *Instance, f *Factors, opts AVGOptions) (*Configuration, RoundingStats) {
	conf, st, _ := roundAVG(context.Background(), in, f, opts)
	return conf, st
}

// roundAVG is RoundAVG with a context check between repeats.
func roundAVG(ctx context.Context, in *Instance, f *Factors, opts AVGOptions) (*Configuration, RoundingStats, error) {
	repeats := opts.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var bestConf *Configuration
	var bestStats RoundingStats
	bestVal := -1.0
	for rep := 0; rep < repeats; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, RoundingStats{}, err
		}
		o := opts
		o.Seed = opts.Seed + uint64(rep)*0x9e37
		conf, st := roundOnce(in, f, o)
		if v := Evaluate(in, conf).Weighted(); v > bestVal {
			bestVal, bestConf, bestStats = v, conf, st
		}
	}
	return bestConf, bestStats, nil
}

func validateCap(in *Instance, cap int) error {
	if cap < 0 {
		return fmt.Errorf("core: negative subgroup size cap %d", cap)
	}
	if cap > 0 && in.NumUsers() > in.NumItems*cap {
		return fmt.Errorf("core: size cap M=%d infeasible: %d users exceed m·M=%d per-slot capacity",
			cap, in.NumUsers(), in.NumItems*cap)
	}
	return nil
}

// roundState carries the shared bookkeeping of CSF-based rounding (used by
// both AVG and AVG-D): the partial configuration, per-user item sets, the
// per-item support lists sorted by factor, and the SVGIC-ST counters.
type roundState struct {
	in        *Instance
	aP        [][]float64
	aS        [][]float64
	f         *Factors
	conf      *Configuration
	hasItem   [][]bool
	remaining int
	cap       int
	counts    []int // per c*K+s assignments, allocated iff cap > 0
	support   [][]int
}

func newRoundState(in *Instance, f *Factors, cap int) *roundState {
	n, m, k := in.NumUsers(), in.NumItems, in.K
	rs := &roundState{
		in:        in,
		aP:        in.PrefCoef(nil),
		aS:        in.PairCoef(nil),
		f:         f,
		conf:      NewConfiguration(n, k),
		hasItem:   make([][]bool, n),
		remaining: n * k,
		cap:       cap,
		support:   sortedSupport(f.X, m),
	}
	for u := range rs.hasItem {
		rs.hasItem[u] = make([]bool, m)
	}
	if cap > 0 {
		rs.counts = make([]int, m*k)
	}
	return rs
}

func (rs *roundState) eligible(u, c, s int) bool {
	return rs.conf.Assign[u][s] == Unassigned && !rs.hasItem[u][c]
}

func (rs *roundState) assign(u, c, s int) {
	rs.conf.Assign[u][s] = c
	rs.hasItem[u][c] = true
	rs.remaining--
	if rs.counts != nil {
		rs.counts[c*rs.in.K+s]++
	}
}

// capReached reports whether (c,s) is locked by the SVGIC-ST size bound.
func (rs *roundState) capReached(c, s int) bool {
	return rs.cap > 0 && rs.counts[c*rs.in.K+s] >= rs.cap
}

// trueMax returns the current maximum utility factor among users eligible
// for (c,s) — the quantity x̄*cs maintained by the advanced sampling scheme.
func (rs *roundState) trueMax(c, s int) float64 {
	if rs.capReached(c, s) {
		return 0
	}
	for _, u := range rs.support[c] {
		if rs.eligible(u, c, s) {
			return rs.f.Factor(u, c)
		}
	}
	return 0
}

// csf performs Co-display Subgroup Formation: co-display focal item c at
// focal slot s to every eligible user with factor ≥ α, in descending factor
// order, honouring the SVGIC-ST cap. It returns the number of users assigned.
func (rs *roundState) csf(c, s int, alpha float64) int {
	made := 0
	for _, u := range rs.support[c] {
		if rs.f.Factor(u, c) < alpha {
			break
		}
		if rs.capReached(c, s) {
			break
		}
		if rs.eligible(u, c, s) {
			rs.assign(u, c, s)
			made++
		}
	}
	return made
}

func roundOnce(in *Instance, f *Factors, opts AVGOptions) (*Configuration, RoundingStats) {
	rs := newRoundState(in, f, opts.SizeCap)
	st := RoundingStats{LPObjective: f.Objective}
	rng := stats.NewRand(opts.Seed)
	switch opts.Sampling {
	case SamplingOriginal:
		roundOriginal(rs, rng, &st)
	default:
		roundAdvanced(rs, rng, &st)
	}
	if rs.remaining > 0 {
		st.FallbackUnits = completeGreedy(in, rs.conf, rs.aP, rs.aS, rs.cap, rs.counts)
	}
	return rs.conf, st
}

// roundAdvanced is AVG with the advanced focal-parameter sampling scheme
// (Algorithm 4): (c,s) is drawn proportionally to the maintained maximum
// eligible factor and α uniformly below it, so every accepted draw makes
// progress. Cached weights only overestimate (eligibility shrinks
// monotonically), which rejection sampling corrects exactly. The iteration
// guard hands any units left after 200·m·k+1000 draws to the greedy
// completion.
func roundAdvanced(rs *roundState, rng *rand.Rand, st *RoundingStats) {
	m, k := rs.in.NumItems, rs.in.K
	maxIter := 200*m*k + 1000
	fw := stats.NewFenwick(m * k)
	for c := 0; c < m; c++ {
		if len(rs.support[c]) == 0 {
			continue
		}
		mx := rs.f.Factor(rs.support[c][0], c)
		for s := 0; s < k; s++ {
			fw.Set(c*k+s, mx)
		}
	}
	for iter := 0; rs.remaining > 0 && iter < maxIter; iter++ {
		st.Iterations++
		idx, err := fw.Sample(rng)
		if err != nil {
			break // all weights exhausted; greedy completion takes over
		}
		c, s := idx/k, idx%k
		tm := rs.trueMax(c, s)
		if tm <= 0 {
			fw.Set(idx, 0)
			continue
		}
		if cached := fw.Get(idx); cached > tm {
			fw.Set(idx, tm)
			if rng.Float64() > tm/cached {
				st.Rejections++
				continue
			}
		}
		alpha := rng.Float64() * tm
		rs.csf(c, s, alpha)
		fw.Set(idx, rs.trueMax(c, s))
	}
}

// roundOriginal is the unoptimized sampling of Algorithm 2: (c,s,α) uniform;
// draws with α above every eligible factor are idle. The iteration guard
// (50·m·k²+10000 draws) is wider than the advanced scheme's because of them.
func roundOriginal(rs *roundState, rng *rand.Rand, st *RoundingStats) {
	m, k := rs.in.NumItems, rs.in.K
	maxIter := 50*m*k*k + 10000
	for iter := 0; rs.remaining > 0 && iter < maxIter; iter++ {
		st.Iterations++
		c := rng.IntN(m)
		s := rng.IntN(k)
		alpha := rng.Float64()
		if rs.csf(c, s, alpha) == 0 {
			st.Idle++
		}
	}
}

// TrivialRounding is the independent rounding scheme of Algorithm 1 /
// Lemma 3: each display unit independently draws an item with probability
// equal to its utility factor. It ignores both co-display and the
// no-duplication constraint; the returned configuration may therefore be
// invalid. The paper uses it to show independent rounding forfeits a 1/m
// fraction of the optimum; see BenchmarkLemma3IndependentRounding.
func TrivialRounding(in *Instance, f *Factors, seed uint64) *Configuration {
	rng := stats.NewRand(seed)
	n, m, k := in.NumUsers(), in.NumItems, in.K
	conf := NewConfiguration(n, k)
	for u := 0; u < n; u++ {
		for s := 0; s < k; s++ {
			// Draw c with probability x*[u][c][s]; the factors over c sum to
			// one for each (u,s) by LP feasibility.
			target := rng.Float64()
			acc := 0.0
			item := m - 1
			for c := 0; c < m; c++ {
				acc += f.Factor(u, c)
				if target < acc {
					item = c
					break
				}
			}
			conf.Assign[u][s] = item
		}
	}
	return conf
}
