package lp

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/svgic/svgic/internal/stats"
)

func solveOrDie(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := SolveSimplex(p)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSimplexBasicLE(t *testing.T) {
	// max 3x + 2y st x+y ≤ 4, x ≤ 2 → x=2, y=2, obj=10.
	p := NewProblem(2)
	p.SetObj(0, 3)
	p.SetObj(1, 2)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 2)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-10) > 1e-9 {
		t.Fatalf("sol = %+v, want obj 10", sol)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-2) > 1e-9 {
		t.Errorf("x = %v, want (2,2)", sol.X)
	}
}

func TestSimplexEquality(t *testing.T) {
	// max x + y st x + 2y = 4, x ≤ 3 → x=3, y=0.5, obj=3.5.
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 2}, EQ, 4)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 3)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-3.5) > 1e-9 {
		t.Fatalf("sol = %+v, want obj 3.5", sol)
	}
}

func TestSimplexGE(t *testing.T) {
	// max -x st x ≥ 2 → x=2, obj=-2 (phase 1 must find feasibility).
	p := NewProblem(1)
	p.SetObj(0, -1)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 2)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective+2) > 1e-9 {
		t.Fatalf("sol = %+v, want obj -2", sol)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// max x st -x ≤ -1 (i.e. x ≥ 1), x ≤ 5 → obj 5.
	p := NewProblem(1)
	p.SetObj(0, 1)
	p.MustAddConstraint([]int{0}, []float64{-1}, LE, -1)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 5)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-9 {
		t.Fatalf("sol = %+v, want 5", sol)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, 1)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 1)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 2)
	sol := solveOrDie(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, 1)
	sol := solveOrDie(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// A classic degenerate model; must terminate (anti-cycling fallback).
	p := NewProblem(3)
	p.SetObj(0, 10)
	p.SetObj(1, -57)
	p.SetObj(2, -9)
	p.MustAddConstraint([]int{0, 1, 2}, []float64{0.5, -5.5, -2.5}, LE, 0)
	p.MustAddConstraint([]int{0, 1, 2}, []float64{0.5, -1.5, -0.5}, LE, 0)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 1)
	sol := solveOrDie(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective < 1-1e-9 {
		t.Errorf("objective = %v, want ≥ 1", sol.Objective)
	}
}

func TestAddConstraintValidation(t *testing.T) {
	p := NewProblem(2)
	if err := p.AddConstraint([]int{0}, []float64{1, 2}, LE, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := p.AddConstraint([]int{5}, []float64{1}, LE, 1); err == nil {
		t.Error("out-of-range variable accepted")
	}
}

func TestProjectCappedSimplexProperties(t *testing.T) {
	err := quick.Check(func(raw []float64, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Mod(x, 10)
		}
		k := float64(int(kRaw)%len(v) + 1)
		if k > float64(len(v)) {
			k = float64(len(v))
		}
		out := ProjectCappedSimplex(v, k)
		var sum float64
		for _, x := range out {
			if x < -1e-9 || x > 1+1e-9 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-k) < 1e-6
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestProjectCappedSimplexFixedPoints(t *testing.T) {
	v := []float64{1, 0, 1, 0}
	out := ProjectCappedSimplex(append([]float64(nil), v...), 2)
	for i := range v {
		if math.Abs(out[i]-v[i]) > 1e-9 {
			t.Errorf("feasible point moved: %v -> %v", v, out)
			break
		}
	}
	// k out of range clamps to the boundary.
	z := ProjectCappedSimplex([]float64{0.5, 0.7}, 0)
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("k=0 projection = %v", z)
	}
	o := ProjectCappedSimplex([]float64{0.5, 0.7}, 5)
	if o[0] != 1 || o[1] != 1 {
		t.Errorf("k≥n projection = %v", o)
	}
}

func TestProjectMinimizesDistance(t *testing.T) {
	// The projection must be at least as close as random feasible points.
	r := stats.NewRand(11)
	for trial := 0; trial < 50; trial++ {
		n := 4 + r.IntN(4)
		k := 1 + r.IntN(n-1)
		v := make([]float64, n)
		for i := range v {
			v[i] = 3*r.Float64() - 1
		}
		proj := ProjectCappedSimplex(append([]float64(nil), v...), float64(k))
		dProj := dist2(v, proj)
		// Random feasible comparison point: project a random vector.
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64()
		}
		feas := ProjectCappedSimplex(w, float64(k))
		if dist2(v, feas) < dProj-1e-9 {
			t.Fatalf("found a closer feasible point: %v vs projection %v of %v", feas, proj, v)
		}
	}
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// randomRelaxation builds a small random LP_SIMP instance.
func randomRelaxation(seed uint64, n, m, k, pairs int) *Relaxation {
	r := stats.NewRand(seed)
	rx := &Relaxation{NumUsers: n, NumItems: m, K: k}
	rx.Pref = make([][]float64, n)
	for u := range rx.Pref {
		rx.Pref[u] = make([]float64, m)
		for c := range rx.Pref[u] {
			rx.Pref[u][c] = r.Float64()
		}
	}
	seen := map[[2]int]bool{}
	for len(rx.Pairs) < pairs {
		a, b := r.IntN(n), r.IntN(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		rx.Pairs = append(rx.Pairs, [2]int{a, b})
		row := make([]float64, m)
		for c := range row {
			row[c] = 0.8 * r.Float64()
		}
		rx.PairW = append(rx.PairW, row)
	}
	return rx
}

func mustSolve(t *testing.T, rx *Relaxation, opts RelaxOptions) ([][]float64, float64) {
	t.Helper()
	X, obj, err := rx.Solve(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return X, obj
}

// TestStructuredSolverHonorsContext: a done context stops Solve between
// passes and polish steps with ctx.Err(), whatever the iteration budget.
func TestStructuredSolverHonorsContext(t *testing.T) {
	rx := randomRelaxation(5, 6, 8, 3, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if X, _, err := rx.Solve(ctx, RelaxOptions{Seed: 1}); !errors.Is(err, context.Canceled) || X != nil {
		t.Fatalf("canceled before start: X=%v err=%v, want nil and context.Canceled", X, err)
	}
	for _, opts := range []RelaxOptions{
		{MaxPasses: 1 << 30, Tol: 1e-300, Restarts: 1 << 30},
		{PolishIters: 1 << 30},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, _, err := rx.Solve(ctx, opts)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%+v: err = %v, want context.DeadlineExceeded", opts, err)
		}
	}
}

func TestStructuredSolverNearExact(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rx := randomRelaxation(seed, 4, 5, 2, 4)
		_, exact, err := rx.SolveExact()
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		X, obj := mustSolve(t, rx, RelaxOptions{Seed: seed, MaxPasses: 60, PolishIters: 150, Restarts: 2})
		if obj > exact+1e-6 {
			t.Errorf("seed %d: structured %.6f exceeds exact optimum %.6f", seed, obj, exact)
		}
		if obj < 0.95*exact {
			t.Errorf("seed %d: structured %.6f below 95%% of exact %.6f", seed, obj, exact)
		}
		// Feasibility of the returned point.
		for u, row := range X {
			var sum float64
			for _, x := range row {
				if x < -1e-9 || x > 1+1e-9 {
					t.Fatalf("seed %d: X[%d] out of box: %v", seed, u, row)
				}
				sum += x
			}
			if math.Abs(sum-float64(rx.K)) > 1e-6 {
				t.Fatalf("seed %d: user %d mass %.9f, want %d", seed, u, sum, rx.K)
			}
		}
		// Reported objective matches recomputation.
		if math.Abs(rx.Objective(X)-obj) > 1e-9 {
			t.Errorf("seed %d: reported objective %.9f != recomputed %.9f", seed, obj, rx.Objective(X))
		}
	}
}

// TestStructuredDefaultsNearExact is the LP-quality oracle for the options
// the server actually runs: Solve with default RelaxOptions against the
// dense-simplex optimum on 40 small random relaxations. AVG-D's guarantee is
// 4/β in the β the structured solver reaches (Corollary 4.2), so a cheaper
// solver must not let the worst or mean ratio slip below these floors.
func TestStructuredDefaultsNearExact(t *testing.T) {
	const runs = 40
	worst, sum := math.Inf(1), 0.0
	for s := 1; s <= runs; s++ {
		n := 5 + s%4
		pairs := min(n+s%5, n*(n-1)/2)
		rx := randomRelaxation(uint64(100+s), n, 8, 3, pairs)
		_, exact, err := rx.SolveExact()
		if err != nil {
			t.Fatalf("s=%d: exact: %v", s, err)
		}
		_, obj := mustSolve(t, rx, RelaxOptions{Seed: uint64(s)})
		if obj > exact+1e-6 {
			t.Errorf("s=%d: structured %.9f exceeds exact optimum %.9f", s, obj, exact)
		}
		ratio := obj / exact
		worst = min(worst, ratio)
		sum += ratio
	}
	mean := sum / runs
	t.Logf("default options: worst obj/exact %.4f, mean %.4f", worst, mean)
	if worst < 0.95 {
		t.Errorf("worst obj/exact %.4f below 0.95", worst)
	}
	if mean < 0.98 {
		t.Errorf("mean obj/exact %.4f below 0.98", mean)
	}
}

func TestStructuredSolverIndifferentInstance(t *testing.T) {
	// Lemma 3's instance: all preferences zero, all pair weights equal.
	// Any point with x[u] identical across users is optimal; the solver must
	// reach objective = pairs · k · w.
	const n, m, k = 5, 6, 2
	rx := &Relaxation{NumUsers: n, NumItems: m, K: k}
	rx.Pref = make([][]float64, n)
	for u := range rx.Pref {
		rx.Pref[u] = make([]float64, m)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			rx.Pairs = append(rx.Pairs, [2]int{a, b})
			row := make([]float64, m)
			for c := range row {
				row[c] = 1
			}
			rx.PairW = append(rx.PairW, row)
		}
	}
	_, obj := mustSolve(t, rx, RelaxOptions{Seed: 3})
	want := float64(len(rx.Pairs) * k)
	if math.Abs(obj-want) > 1e-6 {
		t.Errorf("objective = %v, want %v", obj, want)
	}
}

func TestSolveSimplexIterLimit(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, LE, 1)
	if _, err := SolveSimplexIter(p, 1); err == nil {
		// A 1-iteration budget may or may not suffice; just ensure no panic
		// and that a generous budget works.
		t.Log("tiny budget happened to suffice")
	}
	sol, err := SolveSimplexIter(p, 1000)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("generous budget failed: %v %v", sol.Status, err)
	}
}

func TestUpperBoundSandwichesOptimum(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rx := randomRelaxation(seed, 5, 6, 2, 6)
		_, exact, err := rx.SolveExact()
		if err != nil {
			t.Fatal(err)
		}
		ub := rx.UpperBound()
		if ub < exact-1e-6 {
			t.Errorf("seed %d: upper bound %.6f below LP optimum %.6f", seed, ub, exact)
		}
		_, feasible := mustSolve(t, rx, RelaxOptions{Seed: seed})
		if feasible > ub+1e-6 {
			t.Errorf("seed %d: feasible objective %.6f exceeds upper bound %.6f", seed, feasible, ub)
		}
	}
}

func TestUpperBoundTightOnIndependentUsers(t *testing.T) {
	// Without pairs the bound is exactly the optimum: per-user top-K.
	rx := randomRelaxation(3, 4, 6, 2, 0)
	_, exact, err := rx.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	if ub := rx.UpperBound(); math.Abs(ub-exact) > 1e-6 {
		t.Errorf("pairless bound %.6f != optimum %.6f", ub, exact)
	}
}

func TestMethodsAgreeOnEasyInstance(t *testing.T) {
	// Pairless instance: block-coordinate must hit the separable optimum.
	rx := randomRelaxation(9, 5, 6, 2, 0)
	_, exact, err := rx.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	_, bcd := mustSolve(t, rx, RelaxOptions{Seed: 1})
	if math.Abs(bcd-exact) > 1e-6 {
		t.Errorf("block-coordinate %.6f != exact %.6f", bcd, exact)
	}
}

// TestStructuredSolverWarmStart: a warm point seeds the ascent instead of
// the cold restarts — solving from the cold optimum itself must reproduce
// (at least) its objective; mis-dimensioned or out-of-range warm input is
// sanitized or ignored rather than breaking feasibility.
func TestStructuredSolverWarmStart(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rx := randomRelaxation(seed, 5, 6, 2, 6)
		coldX, coldObj := mustSolve(t, rx, RelaxOptions{Seed: seed})

		warmX, warmObj := mustSolve(t, rx, RelaxOptions{Seed: seed + 99, Warm: coldX})
		if warmObj < coldObj-1e-9 {
			t.Fatalf("seed %d: warm solve from the cold optimum regressed: %v -> %v", seed, coldObj, warmObj)
		}
		for u, row := range warmX {
			var sum float64
			for _, x := range row {
				if x < -1e-12 || x > 1+1e-12 {
					t.Fatalf("seed %d: warm solution out of box: x[%d]=%v", seed, u, row)
				}
				sum += x
			}
			if math.Abs(sum-float64(rx.K)) > 1e-9 {
				t.Fatalf("seed %d: warm solution row %d sums to %v, want %d", seed, u, sum, rx.K)
			}
		}
		// The caller keeps ownership: the warm input must not be mutated.
		reObj := rx.Objective(coldX)
		if math.Abs(reObj-coldObj) > 1e-9 {
			t.Fatalf("seed %d: Solve mutated the caller's warm point: objective %v -> %v", seed, coldObj, reObj)
		}

		// Garbage warm inputs: wrong shape is ignored (cold path), values
		// outside [0,1] and NaN are clamped and projected back to feasibility.
		if _, obj := mustSolve(t, rx, RelaxOptions{Seed: seed, Warm: coldX[:len(coldX)-1]}); math.Abs(obj-coldObj) > 1e-9 {
			t.Fatalf("seed %d: mis-dimensioned warm input changed the cold result: %v vs %v", seed, obj, coldObj)
		}
		dirty := make([][]float64, rx.NumUsers)
		for u := range dirty {
			dirty[u] = make([]float64, rx.NumItems)
			for c := range dirty[u] {
				dirty[u][c] = 5
			}
			dirty[u][0] = math.NaN()
			dirty[u][1] = -3
		}
		dX, _ := mustSolve(t, rx, RelaxOptions{Seed: seed, Warm: dirty})
		for u, row := range dX {
			var sum float64
			for _, x := range row {
				if math.IsNaN(x) || x < -1e-12 || x > 1+1e-12 {
					t.Fatalf("seed %d: dirty warm input leaked into solution row %d: %v", seed, u, row)
				}
				sum += x
			}
			if math.Abs(sum-float64(rx.K)) > 1e-9 {
				t.Fatalf("seed %d: dirty warm solution row %d sums to %v, want %d", seed, u, sum, rx.K)
			}
		}
	}
}
