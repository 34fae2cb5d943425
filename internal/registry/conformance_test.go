package registry_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/graph"
	"github.com/svgic/svgic/internal/mip"
	"github.com/svgic/svgic/internal/paperex"
	"github.com/svgic/svgic/internal/registry"
	"github.com/svgic/svgic/internal/stats"
	"github.com/svgic/svgic/internal/utility"
)

// The solver conformance suite: one table-driven pass over EVERY registered
// solver (new registrations are picked up automatically), asserting the
// Solver contract on shared fixtures —
//
//   - the configuration is complete and valid (bounds, k distinct slots);
//   - the Solution envelope is honest (algorithm name, report matches a
//     fresh evaluation, components ≥ 1);
//   - a solution that carries LP rounding stats (AVG, AVG-D) is worth at
//     least a quarter of its LP objective — the paper's 4-approximation;
//   - deterministic solvers are bit-reproducible across fresh instances;
//   - a pre-canceled context returns ctx.Err() promptly;
//   - one solver instance is safe for concurrent use (run with -race).

// conformanceFixtures returns the shared instances: the paper's running
// example (connected, small enough for the exact IP), a multi-component
// synthetic workload, and one seeded group per dataset profile.
func conformanceFixtures(t *testing.T) []*core.Instance {
	t.Helper()
	fixtures := []*core.Instance{
		paperex.New(0.5),
		datasets.MultiGroup(3, 2, 3, 8, 2, 0.5),
	}
	for _, g := range []struct {
		name    datasets.Name
		n, m, k int
		lambda  float64
		seed    uint64
	}{
		{datasets.Timik, 6, 20, 3, 0.5, 21},
		{datasets.Epinions, 15, 30, 4, 0.4, 22},
		{datasets.Yelp, 24, 40, 5, 0.6, 23},
	} {
		in, err := datasets.Generate(g.name, g.n, g.m, g.k, g.lambda, utility.PIERT, g.seed)
		if err != nil {
			t.Fatalf("fixture %s: %v", g.name, err)
		}
		fixtures = append(fixtures, in)
	}
	return fixtures
}

// conformanceParams overrides defaults where the conformance budget needs
// it; every other solver runs with registry defaults.
var conformanceParams = map[string]registry.Params{
	"ip": {"timeLimit": "10s"},
}

// fixturesFor bounds the exponential solvers to the small fixture; everything
// else runs the full set.
func fixturesFor(t *testing.T, name string) []*core.Instance {
	t.Helper()
	fixtures := conformanceFixtures(t)
	if name == "ip" {
		return fixtures[:1] // branch and bound: paper example only
	}
	return fixtures
}

func TestSolverConformance(t *testing.T) {
	for _, spec := range registry.Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			params := conformanceParams[spec.Name]
			s, err := registry.New(spec.Name, params)
			if err != nil {
				t.Fatalf("construction with defaults failed: %v", err)
			}
			if s.Name() != spec.Display {
				t.Errorf("Name() = %q, want display name %q", s.Name(), spec.Display)
			}
			ctx := context.Background()
			for fi, in := range fixturesFor(t, spec.Name) {
				sol, err := s.Solve(ctx, in)
				if err != nil {
					t.Fatalf("fixture %d: %v", fi, err)
				}
				if err := sol.Config.Validate(in); err != nil {
					t.Fatalf("fixture %d: invalid configuration: %v", fi, err)
				}
				if sol.Config.K != in.K || len(sol.Config.Assign) != in.NumUsers() {
					t.Fatalf("fixture %d: wrong shape %dx%d, want %dx%d",
						fi, len(sol.Config.Assign), sol.Config.K, in.NumUsers(), in.K)
				}
				if sol.Algorithm != spec.Display {
					t.Errorf("fixture %d: solution algorithm %q, want %q", fi, sol.Algorithm, spec.Display)
				}
				if sol.Components < 1 {
					t.Errorf("fixture %d: components = %d", fi, sol.Components)
				}
				fresh := core.Evaluate(in, sol.Config)
				if math.Abs(sol.Report.Weighted()-fresh.Weighted()) > 1e-12 {
					t.Errorf("fixture %d: solution report %.12f != fresh evaluation %.12f",
						fi, sol.Report.Weighted(), fresh.Weighted())
				}
				if r := sol.Rounding; r != nil && sol.Report.Weighted() < r.LPObjective/4-1e-9 {
					t.Errorf("fixture %d: weighted value %.9f below LP/4 = %.9f",
						fi, sol.Report.Weighted(), r.LPObjective/4)
				}
			}

			if spec.Deterministic {
				in := fixturesFor(t, spec.Name)[0]
				s2, err := registry.New(spec.Name, params)
				if err != nil {
					t.Fatal(err)
				}
				a, err := s.Solve(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				b, err := s2.Solve(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				for u := range a.Config.Assign {
					for k := range a.Config.Assign[u] {
						if a.Config.Assign[u][k] != b.Config.Assign[u][k] {
							t.Fatalf("deterministic solver diverged between fresh instances at (%d,%d)", u, k)
						}
					}
				}
			}

			// A context that is already dead must come straight back with its
			// error — no solving, no panic.
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := s.Solve(canceled, conformanceFixtures(t)[0]); !errors.Is(err, context.Canceled) {
				t.Errorf("pre-canceled Solve: err = %v, want context.Canceled", err)
			}

			// One instance, several goroutines: the Solver contract requires
			// concurrent safety (the engine shares instances across workers).
			in := fixturesFor(t, spec.Name)[0]
			const workers = 4
			sols := make([]*core.Solution, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					sols[w], errs[w] = s.Solve(ctx, in)
				}()
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if errs[w] != nil {
					t.Fatalf("concurrent solve %d: %v", w, errs[w])
				}
				if err := sols[w].Config.Validate(in); err != nil {
					t.Fatalf("concurrent solve %d: %v", w, err)
				}
				if spec.Deterministic && sols[w].Report.Weighted() != sols[0].Report.Weighted() {
					t.Errorf("concurrent solve %d: objective %.12f != %.12f",
						w, sols[w].Report.Weighted(), sols[0].Report.Weighted())
				}
			}
		})
	}
}

// TestConformanceCoversRegistry guards the suite itself: it must see every
// built-in (so a registration typo cannot silently drop an algorithm from
// coverage).
func TestConformanceCoversRegistry(t *testing.T) {
	names := registry.Names()
	want := []string{"avg", "avgd", "fmg", "grf", "ip", "per", "sdp"}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, w := range want {
		if !found[w] {
			t.Errorf("built-in %q missing from the registry", w)
		}
	}
}

// TestIPMatchesBruteForce is the registry-level exactness oracle: on seeded
// tiny instances of every shape n ≤ 4, m ≤ 4, k ≤ 2, registry "ip" reaches
// mip.BruteForce's optimum, and no other registered solver scores above it.
func TestIPMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	solvers := map[string]core.Solver{}
	for _, spec := range registry.Specs() {
		s, err := registry.New(spec.Name, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		solvers[spec.Name] = s
	}
	const seeds = 24
	for seed := uint64(1); seed <= seeds; seed++ {
		n := 2 + int(seed%3)
		k := 1 + int(seed/3%2)
		m := k + int(seed/6%uint64(5-k))
		r := stats.NewRand(seed)
		in := core.NewInstance(graph.ErdosRenyi(n, 0.6, r), m, k, []float64{0.3, 0.5, 0.8}[seed%3])
		params := utility.Defaults()
		params.Topics = 4
		utility.Populate(in, params, seed+100)

		bf, err := mip.BruteForce(in, 0)
		if err != nil {
			t.Fatalf("seed %d (n=%d m=%d k=%d): brute force: %v", seed, n, m, k, err)
		}
		opt := core.Evaluate(in, bf.Config).Weighted()
		if math.Abs(opt-bf.Objective) > 1e-9 {
			t.Fatalf("seed %d: brute force reports %.12f, its configuration evaluates to %.12f", seed, bf.Objective, opt)
		}
		for name, s := range solvers {
			sol, err := s.Solve(ctx, in)
			if err != nil {
				t.Fatalf("seed %d (n=%d m=%d k=%d): %s: %v", seed, n, m, k, name, err)
			}
			got := sol.Report.Weighted()
			switch {
			case name == "ip" && math.Abs(got-opt) > 1e-9:
				t.Errorf("seed %d (n=%d m=%d k=%d): ip %.12f != brute-force optimum %.12f", seed, n, m, k, got, opt)
			case got > opt+1e-9:
				t.Errorf("seed %d (n=%d m=%d k=%d): %s %.12f beats the brute-force optimum %.12f", seed, n, m, k, name, got, opt)
			}
		}
	}
}
