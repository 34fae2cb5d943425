package eval

import (
	"fmt"
	"math"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/lp"
	"github.com/svgic/svgic/internal/stats"
	"github.com/svgic/svgic/internal/utility"
)

// Ablations and extension studies beyond the paper's figures: Section 5's
// practical scenarios and the design choices of this implementation
// (Corollary 4.1 repeats, Corollary 4.2 LP quality, structured-solver
// budgets). Registered as ext* / ablation* experiments.

// ExtMVDBeta sweeps the multi-view display width β (Extension C): each user
// keeps their primary item per slot and gains up to β−1 group views.
func ExtMVDBeta(cfg Config) ([]*Table, error) {
	in, err := generate(cfg, datasets.Timik, 30, 120, 6, 0.5, utility.PIERT, 0)
	if err != nil {
		return nil, err
	}
	base, _, err := core.SolveAVGD(in, core.AVGDOptions{R: 1, LP: defaultLP()})
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:   "Extension C: multi-view display objective vs β (AVG-D base)",
		Columns: []string{"beta", "objective", "gain_vs_single_view"},
	}
	single := core.Evaluate(in, base).Scaled()
	for _, beta := range []int{1, 2, 3, 4} {
		mv := core.GreedyMVD(in, base, beta)
		obj := core.EvaluateMVD(in, mv).Scaled()
		tab.Addf(beta, obj, obj/single-1)
	}
	return []*Table{tab}, nil
}

// ExtSlotSignificance studies Extension B: with centre-heavy slot weights,
// how much γ-weighted objective does the free global slot reordering recover
// for each scheme?
func ExtSlotSignificance(cfg Config) ([]*Table, error) {
	in, err := generate(cfg, datasets.Timik, 30, 120, 8, 0.5, utility.PIERT, 0)
	if err != nil {
		return nil, err
	}
	k := in.K
	gamma := make([]float64, k)
	for s := range gamma {
		center := float64(k-1) / 2
		gamma[s] = 1 + 2*(1-math.Abs(float64(s)-center)/center)
	}
	tab := &Table{
		Title:   "Extension B: γ-weighted objective before/after slot reordering",
		Columns: []string{"scheme", "before", "after", "gain_pct"},
	}
	for _, s := range lineup(cfg.Seed) {
		conf, _, _, err := measure(in, s)
		if err != nil {
			return nil, err
		}
		before := core.EvaluateWithSlotWeights(in, conf, gamma)
		after := core.EvaluateWithSlotWeights(in, core.OptimizeSlotOrder(in, conf, gamma), gamma)
		gain := 0.0
		if before > 0 {
			gain = 100 * (after/before - 1)
		}
		tab.Addf(s.Name(), before, after, gain)
	}
	return []*Table{tab}, nil
}

// ExtStability studies Extension E: subgroup churn between consecutive slots
// before and after the free slot reordering, per scheme.
func ExtStability(cfg Config) ([]*Table, error) {
	in, err := generate(cfg, datasets.Yelp, 30, 120, 8, 0.5, utility.PIERT, 0)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:   "Extension E: subgroup edit distance before/after stabilization",
		Columns: []string{"scheme", "edit_before", "edit_after", "objective_unchanged"},
	}
	for _, s := range lineup(cfg.Seed) {
		conf, rep, _, err := measure(in, s)
		if err != nil {
			return nil, err
		}
		before := core.SubgroupEditDistance(in, conf)
		stable, after := core.StabilizeSubgroups(in, conf)
		same := math.Abs(core.Evaluate(in, stable).Weighted()-rep.Weighted()) < 1e-9
		tab.Addf(s.Name(), before, after, fmt.Sprint(same))
	}
	return []*Table{tab}, nil
}

// ExtDynamic studies Extension F: a stream of joins and leaves handled
// incrementally by the dynamic session versus re-solving from scratch with
// AVG-D after every event. Reported: final objective ratio and total time.
func ExtDynamic(cfg Config) ([]*Table, error) {
	const (
		n, m, k = 20, 80, 5
		events  = 6
	)
	in, err := generate(cfg, datasets.Timik, n, m, k, 0.5, utility.PIERT, 0)
	if err != nil {
		return nil, err
	}
	base, _, err := core.SolveAVGD(in, core.AVGDOptions{R: 1, LP: defaultLP()})
	if err != nil {
		return nil, err
	}
	ds, err := core.NewDynamicSession(in, base, 0)
	if err != nil {
		return nil, err
	}
	r := stats.NewRand(cfg.Seed + 17)
	tab := &Table{
		Title:   "Extension F: incremental session vs full re-solve over a join/leave stream",
		Columns: []string{"event", "incremental_value", "resolve_value", "ratio", "incremental_time", "resolve_time"},
	}
	for ev := 0; ev < events; ev++ {
		var incTime time.Duration
		start := time.Now()
		if ev%2 == 0 {
			pref := make([]float64, m)
			for c := range pref {
				pref[c] = r.Float64()
			}
			friends := core.FriendTies{}
			for len(friends) < 3 {
				f := r.IntN(len(ds.ActiveUsers()))
				u := ds.ActiveUsers()[f]
				out := make([]float64, m)
				for c := range out {
					out[c] = 0.3 * pref[c]
				}
				friends[u] = core.FriendTie{Out: out, In: out}
			}
			if _, err := ds.Join(pref, friends); err != nil {
				return nil, err
			}
		} else {
			act := ds.ActiveUsers()
			if err := ds.Leave(act[r.IntN(len(act))]); err != nil {
				return nil, err
			}
		}
		ds.Rebalance(2)
		incTime = time.Since(start)
		incVal := ds.Value()

		// Full re-solve on the session's current instance for comparison. The
		// clone numbers the social pairs as a rebuilt instance would, not in
		// the join order a live session keeps.
		snap := ds.Instance().Clone()
		start = time.Now()
		resConf, _, err := core.SolveAVGD(snap, core.AVGDOptions{R: 1, LP: defaultLP()})
		resTime := time.Since(start)
		if err != nil {
			return nil, err
		}
		resVal := core.Evaluate(snap, resConf).Weighted()
		ratio := 1.0
		if resVal > 0 {
			ratio = incVal / resVal
		}
		kind := "join"
		if ev%2 == 1 {
			kind = "leave"
		}
		tab.Addf(fmt.Sprintf("%d(%s)", ev+1, kind), incVal, resVal, ratio, incTime, resTime)
	}
	return []*Table{tab}, nil
}

// AblationRepeats studies Corollary 4.1: the value of running AVG's rounding
// R times and keeping the best, against the single deterministic AVG-D run.
func AblationRepeats(cfg Config) ([]*Table, error) {
	in, err := generate(cfg, datasets.Timik, 30, 120, 6, 0.5, utility.PIERT, 0)
	if err != nil {
		return nil, err
	}
	f, err := core.SolveRelaxation(in, core.LPStructured, defaultLP())
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:   "Corollary 4.1 ablation: best-of-R CSF rounding (shared LP solution)",
		Columns: []string{"repeats", "scaled_total", "vs_LP_bound"},
	}
	for _, reps := range []int{1, 3, 5, 10, 20} {
		conf, _ := core.RoundAVG(in, f, core.AVGOptions{Seed: cfg.Seed, Repeats: reps})
		v := core.Evaluate(in, conf)
		tab.Addf(reps, v.Scaled(), v.Weighted()/f.Objective)
	}
	avgd, _ := core.RoundAVGD(in, f, core.AVGDOptions{R: 1})
	v := core.Evaluate(in, avgd)
	tab.Addf("AVG-D", v.Scaled(), v.Weighted()/f.Objective)
	return []*Table{tab}, nil
}

// AblationLPBudget studies Corollary 4.2: cheaper (β-approximate) fractional
// solutions against the final configuration quality, with the certificate
// β ≥ objective/UpperBound from the separable bound.
func AblationLPBudget(cfg Config) ([]*Table, error) {
	in, err := generate(cfg, datasets.Timik, 30, 120, 6, 0.5, utility.PIERT, 0)
	if err != nil {
		return nil, err
	}
	rx := in.Relaxation()
	ub := rx.UpperBound()
	tab := &Table{
		Title:   "Corollary 4.2 ablation: LP budget vs fractional quality vs final quality",
		Columns: []string{"lp_budget", "lp_time", "lp_objective", "beta_certificate", "avgd_scaled"},
	}
	budgets := []struct {
		name string
		opts lp.RelaxOptions
	}{
		{"1 pass, no polish", lp.RelaxOptions{MaxPasses: 1, PolishIters: -1, Restarts: 1}},
		{"5 passes, no polish", lp.RelaxOptions{MaxPasses: 5, PolishIters: -1, Restarts: 1}},
		{"30 passes, no polish", lp.RelaxOptions{MaxPasses: 30, PolishIters: -1, Restarts: 1}},
		{"30 passes + polish 40", lp.RelaxOptions{MaxPasses: 30, PolishIters: 40, Restarts: 1}},
		{"60 passes + polish 150, 3 restarts", lp.RelaxOptions{MaxPasses: 60, PolishIters: 150, Restarts: 3}},
	}
	for _, b := range budgets {
		start := time.Now()
		f, err := core.SolveRelaxation(in, core.LPStructured, b.opts)
		lpTime := time.Since(start)
		if err != nil {
			return nil, err
		}
		conf, _ := core.RoundAVGD(in, f, core.AVGDOptions{R: 1})
		tab.Addf(b.name, lpTime, f.Objective, f.Objective/ub, core.Evaluate(in, conf).Scaled())
	}
	return []*Table{tab}, nil
}

// ExtCommodity studies Extension A: optimizing the commodity-weighted
// instance versus weighting an unweighted optimum after the fact.
func ExtCommodity(cfg Config) ([]*Table, error) {
	in, err := generate(cfg, datasets.Timik, 30, 120, 6, 0.5, utility.PIERT, 0)
	if err != nil {
		return nil, err
	}
	prices := make([]float64, in.NumItems)
	r := stats.NewRand(cfg.Seed + 23)
	for c := range prices {
		prices[c] = 0.25 + 1.75*r.Float64()
	}
	weighted := core.WeightedInstance(in, prices)
	tab := &Table{
		Title:   "Extension A: profit-aware vs profit-oblivious optimization",
		Columns: []string{"plan", "profit_objective", "plain_objective"},
	}
	profitConf, _, err := core.SolveAVGD(weighted, core.AVGDOptions{R: 1, LP: defaultLP()})
	if err != nil {
		return nil, err
	}
	plainConf, _, err := core.SolveAVGD(in, core.AVGDOptions{R: 1, LP: defaultLP()})
	if err != nil {
		return nil, err
	}
	tab.Addf("optimize weighted instance", core.Evaluate(weighted, profitConf).Scaled(),
		core.Evaluate(in, profitConf).Scaled())
	tab.Addf("optimize plain, price later", core.Evaluate(weighted, plainConf).Scaled(),
		core.Evaluate(in, plainConf).Scaled())
	return []*Table{tab}, nil
}

// Fig11Trace augments the case study with AVG-D's first CSF decisions — the
// mechanics behind the partitions of Figure 11.
func Fig11Trace(cfg Config) ([]*Table, error) {
	in, err := generate(cfg, datasets.Yelp, 20, 30, 3, 0.5, utility.PIERT, 0)
	if err != nil {
		return nil, err
	}
	var trace []core.TraceStep
	f, err := core.SolveRelaxation(in, core.LPStructured, defaultLP())
	if err != nil {
		return nil, err
	}
	core.RoundAVGD(in, f, core.AVGDOptions{R: 1, Trace: &trace})
	tab := &Table{
		Title:   "AVG-D co-display subgroup formation trace (first 12 iterations)",
		Columns: []string{"iter", "item", "slot", "subgroup_size", "users", "score"},
	}
	for i, step := range trace {
		if i >= 12 {
			break
		}
		tab.Addf(i+1, step.Item, step.Slot+1, len(step.Users), fmt.Sprint(step.Users), step.Gain)
	}
	return []*Table{tab}, nil
}
