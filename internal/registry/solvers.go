package registry

import (
	"fmt"

	"github.com/svgic/svgic/internal/baselines"
	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/lp"
	"github.com/svgic/svgic/internal/mip"
)

// Built-in registrations: every algorithm and baseline of the paper. Names
// are the lowercase ids accepted by svgic/svgicd's -algo flags and the HTTP
// "algo" field; defaults reproduce the library's documented defaults, so
// e.g. registry "avgd" with no parameters is bit-identical to
// core.SolveAVGD(in, AVGDOptions{}).

// lpParams is the shared LP-relaxation knob subset of AVG and AVG-D.
var lpParams = []ParamSpec{
	{Name: "lpPasses", Kind: KindInt, Description: "structured-LP coordinate passes (0 = solver default)"},
	{Name: "lpPolish", Kind: KindInt, Description: "structured-LP polish iterations (0 = solver default)"},
	{Name: "lpRestarts", Kind: KindInt, Description: "structured-LP restarts (0 = solver default)"},
}

func lpOpts(p Resolved) lp.RelaxOptions {
	return lp.RelaxOptions{
		MaxPasses:   p.Int("lpPasses"),
		PolishIters: p.Int("lpPolish"),
		Restarts:    p.Int("lpRestarts"),
	}
}

func checkSizeCap(cap int) error {
	if cap < 0 {
		return fmt.Errorf("sizeCap %d must be >= 0", cap)
	}
	return nil
}

func init() {
	MustRegister(Spec{
		Name:          "avg",
		Display:       "AVG",
		Description:   "randomized 4-approximation: LP relaxation + CSF rounding with focal-parameter sampling (seeded, best-of-repeats)",
		Deterministic: true, // seeded: equal seed -> equal result
		Params: append([]ParamSpec{
			{Name: "seed", Kind: KindUint, Default: uint64(1), Description: "rounding RNG seed"},
			{Name: "repeats", Kind: KindInt, Default: 3, Description: "rounding repeats, best kept (Corollary 4.1)"},
			{Name: "sizeCap", Kind: KindInt, Description: "SVGIC-ST subgroup size bound M (0 = uncapped)"},
		}, lpParams...),
		New: func(p Resolved) (core.Solver, error) {
			if err := checkSizeCap(p.Int("sizeCap")); err != nil {
				return nil, err
			}
			if p.Int("repeats") < 0 {
				return nil, fmt.Errorf("repeats %d must be >= 0", p.Int("repeats"))
			}
			return &core.AVGSolver{Opts: core.AVGOptions{
				Seed:    p.Uint("seed"),
				Repeats: p.Int("repeats"),
				SizeCap: p.Int("sizeCap"),
				LP:      lpOpts(p),
			}}, nil
		},
	})

	MustRegister(Spec{
		Name:          "avgd",
		Display:       "AVG-D",
		Description:   "derandomized 4-approximation: LP relaxation + deterministic CSF selection (Algorithm 3)",
		Deterministic: true,
		Params: append([]ParamSpec{
			{Name: "r", Kind: KindFloat, Default: core.DefaultR, Description: "balancing ratio (1/4 = proven guarantee, ~1.0 best empirically)"},
			{Name: "sizeCap", Kind: KindInt, Description: "SVGIC-ST subgroup size bound M (0 = uncapped)"},
		}, lpParams...),
		New: func(p Resolved) (core.Solver, error) {
			if err := checkSizeCap(p.Int("sizeCap")); err != nil {
				return nil, err
			}
			if p.Float("r") < 0 {
				return nil, fmt.Errorf("balancing ratio r=%g must be >= 0", p.Float("r"))
			}
			return &core.AVGDSolver{Opts: core.AVGDOptions{
				R:       p.Float("r"),
				SizeCap: p.Int("sizeCap"),
				LP:      lpOpts(p),
			}}, nil
		},
	})

	MustRegister(Spec{
		Name:          "per",
		Display:       "PER",
		Description:   "personalized baseline: each user's top-k preferred items, no social awareness",
		Deterministic: true,
		New: func(p Resolved) (core.Solver, error) {
			return baselines.PER{}, nil
		},
	})

	MustRegister(Spec{
		Name:          "fmg",
		Display:       "FMG",
		Description:   "group-recommendation baseline: one shared itemset for the whole group, greedy with fairness reweighting",
		Deterministic: true,
		Params: []ParamSpec{
			{Name: "fairness", Kind: KindFloat, Default: 1.0, Description: "fairness reweighting strength (0 = plain aggregate)"},
		},
		New: func(p Resolved) (core.Solver, error) {
			if p.Float("fairness") < 0 {
				return nil, fmt.Errorf("fairness %g must be >= 0", p.Float("fairness"))
			}
			return baselines.FMG{Fairness: p.Float("fairness")}, nil
		},
	})

	MustRegister(Spec{
		Name:          "sdp",
		Display:       "SDP",
		Description:   "subgroup-by-friendship baseline: community-detect the social network, one itemset per subgroup",
		Deterministic: true,
		Params: []ParamSpec{
			{Name: "groups", Kind: KindInt, Description: "force a balanced partition into this many groups (0 = modularity communities)"},
			{Name: "seed", Kind: KindUint, Default: uint64(1), Description: "partition RNG seed (groups > 0 only)"},
		},
		New: func(p Resolved) (core.Solver, error) {
			if p.Int("groups") < 0 {
				return nil, fmt.Errorf("groups %d must be >= 0", p.Int("groups"))
			}
			return baselines.SDP{Groups: p.Int("groups"), Seed: p.Uint("seed")}, nil
		},
	})

	MustRegister(Spec{
		Name:          "grf",
		Display:       "GRF",
		Description:   "subgroup-by-preference baseline: cluster users by preference similarity, one itemset per cluster",
		Deterministic: true,
		Params: []ParamSpec{
			{Name: "groups", Kind: KindInt, Description: "cluster count (0 = ceil(n/4))"},
		},
		New: func(p Resolved) (core.Solver, error) {
			if p.Int("groups") < 0 {
				return nil, fmt.Errorf("groups %d must be >= 0", p.Int("groups"))
			}
			return baselines.GRF{Groups: p.Int("groups")}, nil
		},
	})

	MustRegister(Spec{
		Name:          "ip",
		Display:       "IP",
		Description:   "exact branch-and-bound integer program (small instances; anytime under a time limit, polls ctx between nodes)",
		Deterministic: true,
		Params: []ParamSpec{
			{Name: "strategy", Kind: KindString, Default: "primal", Description: "search strategy: primal|dual|concurrent|detconcurrent|barrier"},
			{Name: "timeLimit", Kind: KindDuration, Default: "30s", Description: "wall-clock budget (0 = unlimited: proven optimum)"},
			{Name: "nodeLimit", Kind: KindInt, Description: "branch-and-bound node budget (0 = unlimited)"},
			{Name: "warmStart", Kind: KindBool, Default: true, Description: "seed the incumbent with AVG-D"},
		},
		New: func(p Resolved) (core.Solver, error) {
			strat, err := parseStrategy(p.String("strategy"))
			if err != nil {
				return nil, err
			}
			if p.Duration("timeLimit") < 0 {
				return nil, fmt.Errorf("timeLimit %v must be >= 0", p.Duration("timeLimit"))
			}
			if p.Int("nodeLimit") < 0 {
				return nil, fmt.Errorf("nodeLimit %d must be >= 0", p.Int("nodeLimit"))
			}
			return baselines.IP{
				Strategy:  strat,
				TimeLimit: p.Duration("timeLimit"),
				NodeLimit: p.Int("nodeLimit"),
				WarmStart: p.Bool("warmStart"),
			}, nil
		},
	})
}

func parseStrategy(s string) (mip.Strategy, error) {
	switch s {
	case "primal":
		return mip.Primal, nil
	case "dual":
		return mip.Dual, nil
	case "concurrent":
		return mip.Concurrent, nil
	case "detconcurrent":
		return mip.DetConcurrent, nil
	case "barrier":
		return mip.Barrier, nil
	}
	return 0, fmt.Errorf("unknown IP strategy %q (want primal, dual, concurrent, detconcurrent or barrier)", s)
}
