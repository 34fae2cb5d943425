package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/graph"
)

// multiComponentInstance builds the canonical multi-component workload
// (disjoint social rings with synthetic utilities) shared with the engine
// demo and benchmarks.
func multiComponentInstance(seed uint64, blocks, blockN, m, k int, lambda float64) *core.Instance {
	return datasets.MultiGroup(seed, blocks, blockN, m, k, lambda)
}

// TestEngineMatchesWholeInstanceSolve is the ISSUE's acceptance property: on
// ≥ 20 random multi-component instances the engine (component-decomposed,
// solved concurrently, merged) returns the same Evaluate objective — in fact
// the same configuration — as a direct whole-instance SolveAVGD.
func TestEngineMatchesWholeInstanceSolve(t *testing.T) {
	e := New(Options{Workers: 4, CacheSize: -1})
	defer e.Close()
	ctx := context.Background()
	for seed := uint64(1); seed <= 20; seed++ {
		in := multiComponentInstance(seed, 4, 6, 20, 3, 0.5)
		want, _, err := core.SolveAVGD(in, core.AVGDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := e.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		got := sol.Config
		if err := got.Validate(in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Algorithm != "AVG-D" {
			t.Fatalf("seed %d: solution algorithm = %q", seed, sol.Algorithm)
		}
		if sol.Components < 2 {
			t.Fatalf("seed %d: solution reports %d components for a multi-component instance", seed, sol.Components)
		}
		for u := range want.Assign {
			for s := range want.Assign[u] {
				if want.Assign[u][s] != got.Assign[u][s] {
					t.Fatalf("seed %d: engine diverges from SolveAVGD at (%d,%d)", seed, u, s)
				}
			}
		}
		ow := core.Evaluate(in, want).Weighted()
		og := sol.Report.Weighted()
		if math.Abs(ow-og) > 1e-12 {
			t.Errorf("seed %d: objective %.12f != %.12f", seed, og, ow)
		}
	}
	st := e.Stats()
	if st.Solves != 20 {
		t.Errorf("Solves = %d, want 20", st.Solves)
	}
	if st.ComponentsSolved < 20*2 {
		t.Errorf("ComponentsSolved = %d, want ≥ 40 (multi-component inputs)", st.ComponentsSolved)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("cache counters moved with caching disabled: %+v", st)
	}
}

func TestEngineCacheHitMiss(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: 8})
	defer e.Close()
	ctx := context.Background()
	in := multiComponentInstance(3, 3, 5, 12, 2, 0.5)
	firstSol, err := e.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	first := firstSol.Config
	if st := e.Stats(); st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("after first solve: %+v", st)
	}
	// Poisoning guard: mutating a returned configuration must not reach the
	// cached copy.
	first.Assign[0][0] = -7
	secondSol, err := e.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	second := secondSol.Config
	if st := e.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("after second solve: %+v", st)
	}
	if second.Assign[0][0] == -7 {
		t.Fatal("cache returned the caller's mutated configuration")
	}
	if err := second.Validate(in); err != nil {
		t.Fatal(err)
	}
	// An equal-but-distinct instance hits too (fingerprint keyed, not pointer
	// keyed); a perturbed one misses.
	if _, err := e.Solve(ctx, multiComponentInstance(3, 3, 5, 12, 2, 0.5)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheHits != 2 {
		t.Fatalf("value-identical instance missed the cache: %+v", st)
	}
	perturbed := multiComponentInstance(3, 3, 5, 12, 2, 0.5)
	perturbed.SetPref(0, 0, perturbed.Pref[0][0]+1)
	if _, err := e.Solve(ctx, perturbed); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheMisses != 2 {
		t.Fatalf("perturbed instance hit the cache: %+v", st)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: -1})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := multiComponentInstance(5, 3, 5, 12, 2, 0.5)
	if _, err := e.Solve(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve on canceled context: err = %v", err)
	}
	if st := e.Stats(); st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}
	// A deadline in the past behaves the same through SolveBatch.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	sols, err := e.SolveBatch(dctx, []*core.Instance{in, in})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveBatch past deadline: err = %v", err)
	}
	for i, c := range sols {
		if c != nil {
			t.Errorf("solution[%d] non-nil after deadline", i)
		}
	}
}

func TestEngineSolveBatch(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	ins := make([]*core.Instance, 12)
	for i := range ins {
		ins[i] = multiComponentInstance(uint64(100+i), 3, 5, 15, 3, 0.5)
	}
	sols, err := e.SolveBatch(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != len(ins) {
		t.Fatalf("got %d solutions, want %d", len(sols), len(ins))
	}
	for i, sol := range sols {
		if err := sol.Config.Validate(ins[i]); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
		// Order preserved: the batch result must score what a direct solve of
		// the same input scores.
		want, _, err := core.SolveAVGD(ins[i], core.AVGDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if w, g := core.Evaluate(ins[i], want).Weighted(), sol.Report.Weighted(); math.Abs(w-g) > 1e-12 {
			t.Errorf("instance %d: objective %.12f, want %.12f", i, g, w)
		}
	}
	if st := e.Stats(); st.Batches != 1 || st.Solves != uint64(len(ins)) {
		t.Errorf("stats after batch: %+v", st)
	}
}

func TestEngineBatchPartialFailure(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: -1})
	defer e.Close()
	good := multiComponentInstance(9, 2, 4, 10, 2, 0.5)
	bad := core.NewInstance(graph.New(2), 1, 3, 0.5) // k > m: invalid
	sols, err := e.SolveBatch(context.Background(), []*core.Instance{good, bad})
	if err == nil {
		t.Fatal("invalid instance did not fail the batch")
	}
	if sols[0] == nil {
		t.Error("valid instance result dropped")
	}
	if sols[1] != nil {
		t.Error("invalid instance produced a solution")
	}
}

func TestEngineConcurrentSolvesRaceClean(t *testing.T) {
	e := New(Options{Workers: 4, CacheSize: 4})
	defer e.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				in := multiComponentInstance(uint64(1+(w+i)%3), 3, 4, 10, 2, 0.5)
				sol, err := e.Solve(context.Background(), in)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sol.Config.Validate(in); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Identical concurrent calls may join one flight instead of counting a
	// solve of their own.
	if st := e.Stats(); st.Solves+st.Joins != 32 {
		t.Errorf("Solves + Joins = %d + %d, want 32", st.Solves, st.Joins)
	}
}

func TestEngineClosed(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Close()
	e.Close() // idempotent
	if _, err := e.Solve(context.Background(), multiComponentInstance(1, 2, 3, 8, 2, 0.5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Solve after Close: err = %v", err)
	}
	if _, err := e.SolveBatch(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("SolveBatch after Close: err = %v", err)
	}
}

// TestEngineNoDecompose: a solver that does not implement core.ComponentSafe
// is solved whole, however many components the instance has.
func TestEngineNoDecompose(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	in := multiComponentInstance(4, 3, 5, 12, 2, 0.5)
	sol, err := e.SolveWith(context.Background(), in, Uncached{S: &core.AVGDSolver{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Config.Validate(in); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ComponentsSolved != 1 {
		t.Errorf("ComponentsSolved = %d, want 1 for a solver without ComponentSafe", st.ComponentsSolved)
	}
}

// TestEngineCappedSolverAutoNoDecompose: New detects a size cap on the
// AVG/AVG-D adapters and solves whole-instance — otherwise merged
// per-component subgroups could exceed the cap silently.
func TestEngineCappedSolverAutoNoDecompose(t *testing.T) {
	const cap = 2
	e := New(Options{
		Workers:   2,
		CacheSize: -1,
		NewSolver: func() core.Solver { return &core.AVGDSolver{Opts: core.AVGDOptions{SizeCap: cap}} },
	})
	defer e.Close()
	in := multiComponentInstance(6, 3, 4, 14, 2, 0.5)
	sol, err := e.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.Config.SizeViolations(cap); v != 0 {
		t.Errorf("%d size violations at cap %d", v, cap)
	}
	if st := e.Stats(); st.ComponentsSolved != 1 {
		t.Errorf("ComponentsSolved = %d, want 1 (capped solver solved whole)", st.ComponentsSolved)
	}
}

// TestEngineCloseRacesSolve: Close concurrent with in-flight Solves must
// never panic; each Solve either completes or returns ErrClosed.
func TestEngineCloseRacesSolve(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: -1})
	ins := make([]*core.Instance, 16)
	for i := range ins {
		ins[i] = multiComponentInstance(uint64(50+i), 3, 4, 10, 2, 0.5)
	}
	var wg sync.WaitGroup
	for _, in := range ins {
		in := in
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol, err := e.Solve(context.Background(), in)
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("unexpected error: %v", err)
				return
			}
			if err == nil {
				if verr := sol.Config.Validate(in); verr != nil {
					t.Error(verr)
				}
			}
		}()
	}
	e.Close() // races the Solves above
	wg.Wait()
}

// TestEngineUnkeyedSolverBypassesCache: a per-request solver without
// core.CacheKeyer has no parameter-precise identity, so SolveWith must not
// cache under its bare Name — two AVG-D adapters with different size caps
// share the name "AVG-D", and serving one's cached result for the other
// could violate the requested cap.
func TestEngineUnkeyedSolverBypassesCache(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: 8})
	defer e.Close()
	ctx := context.Background()
	in := multiComponentInstance(6, 3, 4, 14, 2, 0.5)

	uncapped := &core.AVGDSolver{}
	capped := &core.AVGDSolver{Opts: core.AVGDOptions{SizeCap: 2}}
	if _, err := e.SolveWith(ctx, in, uncapped); err != nil {
		t.Fatal(err)
	}
	got, err := e.SolveWith(ctx, in, capped)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Config.SizeViolations(2); v != 0 {
		t.Errorf("capped solve served an aliased uncapped result: %d violations", v)
	}
	st := e.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("unkeyed solvers touched the cache: %+v", st)
	}
	// Repeating the same unkeyed solver still solves (no stale entry).
	if _, err := e.SolveWith(ctx, in, uncapped); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Solved != 3 || st.CacheHits != 0 {
		t.Errorf("stats after repeat = %+v, want 3 solved / 0 hits", st)
	}
}

// TestEngineSolveBatchEachMixesSolvers: positional per-item solvers, nil
// entries falling back to the default, one Batches tick.
func TestEngineSolveBatchEachMixesSolvers(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: -1})
	defer e.Close()
	in := multiComponentInstance(7, 2, 4, 10, 2, 0.5)
	per := flakySolver{failItems: -1} // never fails; delegates to AVG-D
	sols, err := e.SolveBatchEach(context.Background(), []*core.Instance{in, in},
		[]core.Solver{nil, per})
	if err != nil {
		t.Fatal(err)
	}
	for i, sol := range sols {
		if err := sol.Config.Validate(in); err != nil {
			t.Errorf("result %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want 1", st.Batches)
	}
	// Per-item routing is visible in the per-algorithm counters: one solve
	// under the default's name, one under the override's.
	if st.PerAlgorithm["AVG-D"].Solves != 1 || st.PerAlgorithm["flaky"].Solves != 1 {
		t.Errorf("per-algo split = %+v, want one AVG-D and one flaky", st.PerAlgorithm)
	}
	if _, err := e.SolveBatchEach(context.Background(), []*core.Instance{in}, make([]core.Solver, 2)); err == nil {
		t.Error("mismatched solver slice accepted")
	}
}
