package core

import (
	"context"
	"math"

	"github.com/svgic/svgic/internal/lp"
)

// AVGDOptions configures the deterministic AVG-D solver.
type AVGDOptions struct {
	LPMode LPMode
	LP     lp.RelaxOptions
	// R is the balancing ratio between the immediate utility of the candidate
	// subgroup and the expected future LP utility (paper §4.3). R = 1/4 gives
	// the worst-case 4-approximation; §6.7 studies other values.
	R       float64
	SizeCap int // SVGIC-ST subgroup size bound M; 0 disables the cap
	// FullRescan disables the advanced candidate filtering: every (item,
	// slot) entry is re-evaluated on every iteration instead of only the
	// invalidated row and column. This is the derandomized counterpart of
	// running AVG without the advanced sampling scheme, kept for the
	// Figure 9(b) ablation ("AVG-D–AS").
	FullRescan bool
	// Trace, when non-nil, receives one entry per CSF iteration describing
	// the chosen focal item, slot, target subgroup and score — the raw
	// material of the paper's Figure 11 case study.
	Trace *[]TraceStep
	// SlotWeights, when non-nil (length k), makes the candidate selection
	// slot-significance aware (Extension B): both the immediate gain and the
	// forfeited future LP mass of a candidate at slot s scale with γ_s, so
	// the entry score becomes γ_s·g and valuable subgroups are steered onto
	// significant slots during construction rather than by post-hoc
	// reordering. Score the result with EvaluateWithSlotWeights.
	SlotWeights []float64
	// Warm, when non-nil, is an incumbent configuration to warm-start from:
	// the LP ascent seeds at its indicator point and the result never scores
	// below it (see WarmStarter). Incumbents that fail validation against the
	// instance (or the size cap) are ignored.
	Warm *Configuration
}

// TraceStep records one AVG-D iteration: item c was co-displayed at slot s
// to Users, with candidate score Gain = ALG(Star) − r·ΔLP(Star).
type TraceStep struct {
	Item  int
	Slot  int
	Users []int
	Gain  float64
}

// DefaultR is the balancing ratio with the proven guarantee.
const DefaultR = 0.25

// SolveAVGD runs the full deterministic pipeline: LP relaxation, then
// derandomized CSF selection (Algorithm 3 with the dirty row/column caching
// described in DESIGN.md).
//
// Uncapped instances whose social network is disconnected are first split
// with ComponentDecompose and solved per component: the SAVG objective
// couples users only across social pairs, so the merge loses nothing — and
// the threshold-prefix candidates of CSF, which on a whole instance must be
// prefixes of a single factor order mixing all components, can cut at a
// different threshold in every component. Per-component solving therefore
// never hurts the objective and is also what the batch engine parallelizes;
// doing it here keeps the serial and concurrent paths bit-identical.
// Capped (SVGIC-ST) instances are solved whole — see the SizeCap note below.
func SolveAVGD(in *Instance, opts AVGDOptions) (*Configuration, RoundingStats, error) {
	conf, st, _, err := solveAVGD(context.Background(), in, opts)
	return conf, st, err
}

// solveAVGD is the context-aware pipeline behind SolveAVGD and AVGDSolver:
// the context is checked before the LP relaxation, inside it between passes
// and polish steps, between the LP and rounding phases, and between
// component sub-solves. The returned count is the number of independently
// solved components (1 = solved whole), so the Solution envelope can report
// the internal decomposition honestly.
func solveAVGD(ctx context.Context, in *Instance, opts AVGDOptions) (*Configuration, RoundingStats, int, error) {
	if err := in.Validate(); err != nil {
		return nil, RoundingStats{}, 0, err
	}
	if err := validateCap(in, opts.SizeCap); err != nil {
		return nil, RoundingStats{}, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, RoundingStats{}, 0, err
	}
	if in.Lambda == 0 && opts.SizeCap == 0 {
		return PersonalizedConfig(in), RoundingStats{}, 1, nil
	}
	// The SVGIC-ST subgroup size cap binds across components: users from
	// different components shown the same item at the same slot share one
	// subgroup, so capped instances must be solved whole.
	warm := validWarm(in, opts.Warm, opts.SizeCap)
	if opts.SizeCap == 0 {
		if subs, origs := ComponentDecompose(in); len(subs) > 1 {
			opts.Warm = warm // screened once; sub-solves slice it per component
			conf, st, err := solveAVGDComponents(ctx, in, subs, origs, opts)
			return conf, st, len(subs), err
		}
	}
	lpOpts := opts.LP
	if warm != nil {
		lpOpts.Warm = warmIndicator(in, warm)
	}
	f, err := solveRelaxation(ctx, in, opts.LPMode, lpOpts)
	if err != nil {
		return nil, RoundingStats{}, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, RoundingStats{}, 0, err
	}
	conf, st := RoundAVGD(in, f, opts)
	if warm != nil {
		conf = betterOf(in, conf, warm)
	}
	return conf, st, 1, nil
}

// solveAVGDComponents solves every component sub-instance with the direct
// pipeline and merges configurations, stats (summed) and traces (per-user ids
// mapped back to the whole instance, components in canonical order).
func solveAVGDComponents(ctx context.Context, in *Instance, subs []*Instance, origs [][]int, opts AVGDOptions) (*Configuration, RoundingStats, error) {
	var total RoundingStats
	parts := make([]*Configuration, len(subs))
	for i, sub := range subs {
		if err := ctx.Err(); err != nil {
			return nil, RoundingStats{}, err
		}
		subOpts := opts
		var trace []TraceStep
		if opts.Trace != nil {
			subOpts.Trace = &trace
		}
		subLP := subOpts.LP
		var subWarm *Configuration
		if opts.Warm != nil {
			subWarm = warmRows(opts.Warm, origs[i], in.K)
			subLP.Warm = warmIndicator(sub, subWarm)
		}
		f, err := solveRelaxation(ctx, sub, subOpts.LPMode, subLP)
		if err != nil {
			return nil, RoundingStats{}, err
		}
		conf, st := RoundAVGD(sub, f, subOpts)
		if subWarm != nil {
			conf = betterOf(sub, conf, subWarm)
		}
		parts[i] = conf
		total.Iterations += st.Iterations
		total.Rejections += st.Rejections
		total.Idle += st.Idle
		total.FallbackUnits += st.FallbackUnits
		total.LPObjective += st.LPObjective
		if opts.Trace != nil {
			for _, step := range trace {
				users := make([]int, len(step.Users))
				for j, u := range step.Users {
					users[j] = origs[i][u]
				}
				step.Users = users
				*opts.Trace = append(*opts.Trace, step)
			}
		}
	}
	return MergeConfigurations(in.NumUsers(), in.K, parts, origs), total, nil
}

// avgdEntry caches the best candidate Star for one (item, slot):
// bestG is ALG(Star) − r·ΔLP(Star) (the paper's f up to the additive
// constant r·OPT_LP(S_cur), which is identical across candidates of one
// iteration), and bestLen the number of eligible users in the chosen prefix.
type avgdEntry struct {
	bestG   float64
	bestLen int
	ok      bool
}

// avgdState extends the rounding state with the AVG-D bookkeeping.
type avgdState struct {
	*roundState
	r         float64
	plpUnit   []float64   // per user: Σ_c aP[u][c]·x̄[u][c]/k (LP mass of one display unit)
	spPair    []float64   // per pair: Σ_c aS[e][c]·min(x̄u,x̄v)/k (LP mass of one pair-slot)
	sortedAll [][]int     // per item: all users sorted by descending factor
	entries   []avgdEntry // per c*K+s
	// inStar is the epoch-stamped membership buffer computeEntry uses while
	// walking one candidate's prefix: u is in the Star iff inStar[u] == epoch.
	inStar []int
	epoch  int
}

// RoundAVGD deterministically rounds the fractional solution f
// (Algorithm 3). Each iteration evaluates, for every (item, slot), every
// threshold-prefix of eligible users ordered by utility factor, picks the
// candidate maximizing ALG + r·OPT_LP(S_fut), co-displays the focal item to
// it, and refreshes only the invalidated row and column of the candidate
// cache.
func RoundAVGD(in *Instance, f *Factors, opts AVGDOptions) (*Configuration, RoundingStats) {
	r := opts.R
	if r == 0 {
		r = DefaultR
	}
	st := RoundingStats{LPObjective: f.Objective}
	n, m, k := in.NumUsers(), in.NumItems, in.K

	as := &avgdState{
		roundState: newRoundState(in, f, opts.SizeCap),
		r:          r,
		plpUnit:    make([]float64, n),
		spPair:     make([]float64, len(in.G.Pairs())),
		sortedAll:  make([][]int, m),
		entries:    make([]avgdEntry, m*k),
		inStar:     make([]int, n),
	}
	kf := float64(k)
	for u := 0; u < n; u++ {
		var s float64
		for c := 0; c < m; c++ {
			s += as.aP[u][c] * f.X[u][c]
		}
		as.plpUnit[u] = s / kf
	}
	for e, p := range in.G.Pairs() {
		var s float64
		xu, xv := f.X[p[0]], f.X[p[1]]
		for c := 0; c < m; c++ {
			s += as.aS[e][c] * math.Min(xu[c], xv[c])
		}
		as.spPair[e] = s / kf
	}
	for c := 0; c < m; c++ {
		as.sortedAll[c] = sortAllByFactor(f.X, c, n)
	}
	all := make([]int, m*k)
	for i := range all {
		all[i] = i
	}
	as.recompute(all)

	gamma := opts.SlotWeights
	if gamma != nil && len(gamma) != k {
		gamma = nil // defensive: ignore malformed weights
	}
	for as.remaining > 0 {
		bestIdx, bestG := -1, math.Inf(-1)
		for i := range as.entries {
			e := &as.entries[i]
			if !e.ok {
				continue
			}
			score := e.bestG
			if gamma != nil {
				score *= gamma[i%k]
			}
			if score > bestG {
				bestG, bestIdx = score, i
			}
		}
		if bestIdx < 0 {
			break // no candidate left (only possible under the ST cap)
		}
		st.Iterations++
		c, s := bestIdx/k, bestIdx%k
		assigned := as.apply(c, s, as.entries[bestIdx].bestLen)
		if opts.Trace != nil {
			*opts.Trace = append(*opts.Trace, TraceStep{
				Item: c, Slot: s, Users: assigned, Gain: bestG,
			})
		}
		// Eligibility changed only for item c (the assigned users now hold
		// it) and slot s (their units are filled): refresh row c and column s
		// (or everything under the FullRescan ablation).
		if opts.FullRescan {
			as.recompute(all)
			continue
		}
		dirty := make([]int, 0, m+k)
		for ss := 0; ss < k; ss++ {
			dirty = append(dirty, c*k+ss)
		}
		for cc := 0; cc < m; cc++ {
			if cc != c {
				dirty = append(dirty, cc*k+s)
			}
		}
		as.recompute(dirty)
	}
	if as.remaining > 0 {
		st.FallbackUnits = completeGreedy(in, as.conf, as.aP, as.aS, as.cap, as.counts)
	}
	return as.conf, st
}

// sortAllByFactor orders every user by descending x̄[·][c], ties by id.
func sortAllByFactor(X [][]float64, c, n int) []int {
	us := make([]int, n)
	for i := range us {
		us[i] = i
	}
	// Insertion sort on small n keeps this allocation-light; n is the user
	// count of one shopping group.
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := us[j-1], us[j]
			if X[a][c] > X[b][c] || (X[a][c] == X[b][c] && a < b) {
				break
			}
			us[j-1], us[j] = b, a
		}
	}
	return us
}

// recompute refreshes the given entry indices.
func (as *avgdState) recompute(idxs []int) {
	k := as.in.K
	for _, i := range idxs {
		as.entries[i] = as.computeEntry(i/k, i%k)
	}
}

// computeEntry evaluates every threshold candidate for (c, s): walking the
// eligible users in descending factor order, a cut is allowed wherever the
// factor strictly drops (a threshold α between the two values realizes
// exactly that prefix) and after the final user (α = 0, or α at the smallest
// factor). Under the ST cap the prefix additionally stops at the remaining
// capacity, matching the capped CSF.
func (as *avgdState) computeEntry(c, s int) avgdEntry {
	if as.capReached(c, s) {
		return avgdEntry{}
	}
	in := as.in
	k := in.K
	capLeft := -1
	if as.cap > 0 {
		capLeft = as.cap - as.counts[c*k+s]
	}
	as.epoch++
	ep := as.epoch
	var alg, lpLoss float64
	var entry avgdEntry
	count := 0
	prevFactor := math.Inf(1)
	flush := func() {
		if count == 0 {
			return
		}
		if g := alg - as.r*lpLoss; !entry.ok || g > entry.bestG {
			entry = avgdEntry{bestG: g, bestLen: count, ok: true}
		}
	}
	for _, u := range as.sortedAll[c] {
		if !as.eligible(u, c, s) {
			continue
		}
		fu := as.f.Factor(u, c)
		if fu < prevFactor {
			flush() // a threshold between prevFactor and fu realizes this prefix
			prevFactor = fu
		}
		// Add u to the running Star.
		alg += as.aP[u][c]
		lpLoss += as.plpUnit[u]
		for _, e := range in.G.IncidentPairs(u) {
			a, b := in.G.PairAt(e)
			v := a
			if v == u {
				v = b
			}
			if as.inStar[v] == ep {
				alg += as.aS[e][c]
			} else if as.conf.Assign[v][s] == Unassigned {
				lpLoss += as.spPair[e]
			}
		}
		as.inStar[u] = ep
		count++
		if capLeft > 0 && count >= capLeft {
			break
		}
	}
	flush()
	return entry
}

// apply co-displays item c at slot s to the first prefixLen eligible users in
// factor order — the same walk computeEntry used, so the assigned Star is
// exactly the cached candidate. It returns the assigned users.
func (as *avgdState) apply(c, s, prefixLen int) []int {
	assigned := make([]int, 0, prefixLen)
	for _, u := range as.sortedAll[c] {
		if len(assigned) >= prefixLen {
			break
		}
		if as.eligible(u, c, s) {
			as.assign(u, c, s)
			assigned = append(assigned, u)
		}
	}
	return assigned
}
