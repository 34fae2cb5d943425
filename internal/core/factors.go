package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/svgic/svgic/internal/lp"
)

// LPMode selects how AVG obtains the fractional utility factors.
type LPMode int

const (
	// LPStructured solves the condensed LP_SIMP with the scalable structured
	// solver (block-coordinate ascent + supergradient polish). Default.
	LPStructured LPMode = iota
	// LPSimplexCondensed solves LP_SIMP exactly with the dense simplex.
	// Exact but only viable for small models.
	LPSimplexCondensed
	// LPSimplexFull solves the full per-slot LP_SVGIC exactly with the dense
	// simplex — the path *without* the advanced LP transformation
	// (Observation 2), kept for the Figure 9(b) ablation. The model is k
	// times larger than LP_SIMP.
	LPSimplexFull
)

func (m LPMode) String() string {
	switch m {
	case LPStructured:
		return "structured"
	case LPSimplexCondensed:
		return "simplex-condensed"
	case LPSimplexFull:
		return "simplex-full"
	}
	return "unknown"
}

// Factors holds the fractional solution of the SVGIC relaxation in condensed
// form: X[u][c] = x̄ with Σ_c X[u][c] = k; the per-slot utility factor of the
// full LP is x*[u][c][s] = X[u][c]/k for every slot (Observation 2).
type Factors struct {
	X         [][]float64
	K         int
	Objective float64 // LP objective of X under the instance's λ-weighted coefficients
}

// Factor returns the per-slot utility factor x*[u][c][s] (independent of s).
func (f *Factors) Factor(u, c int) float64 { return f.X[u][c] / float64(f.K) }

// FactorsFromCondensed wraps an externally supplied condensed fractional
// solution (for example the paper's Table 6 values in the golden tests),
// computing its LP objective under the instance's coefficients.
func FactorsFromCondensed(in *Instance, X [][]float64) *Factors {
	rx := in.Relaxation()
	return &Factors{X: X, K: in.K, Objective: rx.Objective(X)}
}

// SolveRelaxation computes utility factors for the instance with the chosen
// LP mode. For LPStructured, lpOpts tunes the solver; the exact modes ignore
// it.
func SolveRelaxation(in *Instance, mode LPMode, lpOpts lp.RelaxOptions) (*Factors, error) {
	return solveRelaxation(context.Background(), in, mode, lpOpts)
}

// solveRelaxation is SolveRelaxation under ctx: the structured solver
// returns ctx.Err() unwrapped between its passes and polish steps, so a
// request deadline bounds the LP however many iterations lpOpts asks for.
func solveRelaxation(ctx context.Context, in *Instance, mode LPMode, lpOpts lp.RelaxOptions) (*Factors, error) {
	rx := in.Relaxation()
	switch mode {
	case LPStructured:
		X, obj, err := rx.Solve(ctx, lpOpts)
		if err != nil {
			return nil, err
		}
		return &Factors{X: X, K: in.K, Objective: obj}, nil
	case LPSimplexCondensed:
		X, obj, err := rx.SolveExact()
		if err != nil {
			return nil, fmt.Errorf("core: condensed simplex relaxation: %w", err)
		}
		return &Factors{X: X, K: in.K, Objective: obj}, nil
	case LPSimplexFull:
		return solveFullRelaxation(in)
	}
	return nil, fmt.Errorf("core: unknown LP mode %d", mode)
}

// solveFullRelaxation solves the full per-slot LP_SVGIC with the dense
// simplex and condenses the per-slot solution back to x̄[u][c] = Σ_s x[u][c][s]
// (the reverse direction of Observation 2's construction).
func solveFullRelaxation(in *Instance) (*Factors, error) {
	fm := BuildFullModel(in)
	sol, err := lp.SolveSimplex(fm.P)
	if err != nil {
		return nil, fmt.Errorf("core: full simplex relaxation: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: full simplex relaxation status %v", sol.Status)
	}
	n, m := in.NumUsers(), in.NumItems
	X := make([][]float64, n)
	for u := 0; u < n; u++ {
		X[u] = make([]float64, m)
		for c := 0; c < m; c++ {
			var s float64
			for slot := 0; slot < in.K; slot++ {
				s += sol.X[fm.XVar(u, c, slot)]
			}
			if s > 1 {
				s = 1 // guard against simplex round-off above the bound
			}
			X[u][c] = s
		}
	}
	rx := in.Relaxation()
	return &Factors{X: X, K: in.K, Objective: rx.Objective(X)}, nil
}

// sortedSupport returns, for every item c, the users with X[u][c] > eps
// sorted by descending factor (ties by ascending user id, keeping every run
// deterministic).
func sortedSupport(X [][]float64, m int) [][]int {
	const eps = 1e-12
	support := make([][]int, m)
	for c := 0; c < m; c++ {
		var us []int
		for u := range X {
			if X[u][c] > eps {
				us = append(us, u)
			}
		}
		sort.Slice(us, func(a, b int) bool {
			if X[us[a]][c] != X[us[b]][c] {
				return X[us[a]][c] > X[us[b]][c]
			}
			return us[a] < us[b]
		})
		support[c] = us
	}
	return support
}
