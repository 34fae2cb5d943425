package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/svgic/svgic/internal/core"
)

// errFlaky is the deterministic failure injected by flakySolver.
var errFlaky = errors.New("flaky solver: injected failure")

// flakySolver fails every instance whose item count equals failItems and
// delegates the rest to AVG-D — a deterministic way to mix solver errors
// into a concurrent workload.
type flakySolver struct {
	failItems int
}

func (f flakySolver) Name() string { return "flaky" }

func (f flakySolver) Solve(ctx context.Context, in *core.Instance) (*core.Solution, error) {
	if in.NumItems == f.failItems {
		return nil, errFlaky
	}
	return (&core.AVGDSolver{}).Solve(ctx, in)
}

// DecomposeSafe keeps the stress mix exercising the decomposition path, as
// the pre-registry engine did for its per-worker custom solvers.
func (f flakySolver) DecomposeSafe() bool { return true }

// assertCounterIdentity checks the Stats contract: every counted Solve call
// lands in exactly one of the four terminal buckets.
func assertCounterIdentity(t *testing.T, st Stats) {
	t.Helper()
	if got, want := st.Solves, st.CacheHits+st.Solved+st.Canceled+st.Errors; got != want {
		t.Errorf("counter identity broken: Solves=%d != CacheHits=%d + Solved=%d + Canceled=%d + Errors=%d (=%d)",
			got, st.CacheHits, st.Solved, st.Canceled, st.Errors, want)
	}
	// The identity holds per algorithm too, and the per-algorithm buckets sum
	// to the global ones.
	var sum AlgoStats
	for name, a := range st.PerAlgorithm {
		if got, want := a.Solves, a.CacheHits+a.Solved+a.Canceled+a.Errors; got != want {
			t.Errorf("per-algo counter identity broken for %s: %+v", name, a)
		}
		sum.Solves += a.Solves
		sum.CacheHits += a.CacheHits
		sum.Solved += a.Solved
		sum.Canceled += a.Canceled
		sum.Errors += a.Errors
	}
	if sum.Solves != st.Solves || sum.CacheHits != st.CacheHits || sum.Solved != st.Solved ||
		sum.Canceled != st.Canceled || sum.Errors != st.Errors {
		t.Errorf("per-algorithm buckets (%+v) do not sum to the global counters (%+v)", sum, st)
	}
}

// TestEngineCounterIdentityStress: under a concurrent mix of cache hits,
// fresh solves, solver errors, canceled contexts and invalid instances,
// Solves == CacheHits + Solved + Canceled + Errors holds — an errored solve
// used to vanish from Solves entirely while its cache miss was already
// counted, so Solves drifted below the sum and misses double-counted on
// retry. Half the goroutines send every instance through Prepare and
// SolvePrepared, so prepared and plain calls share hits, flights and
// buckets, and a prepared call lands where a plain one would. Run with
// -race.
func TestEngineCounterIdentityStress(t *testing.T) {
	const failItems = 9 // flakySolver poison marker; valid instances use m=10/12
	e := New(Options{
		Workers:   4,
		CacheSize: 8,
		NewSolver: func() core.Solver { return flakySolver{failItems: failItems} },
	})
	defer e.Close()
	ctx := context.Background()
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	const (
		goroutines = 8
		iters      = 12
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		solve := e.Solve
		if g%2 == 1 {
			solve = func(ctx context.Context, in *core.Instance) (*core.Solution, error) {
				p, err := Prepare(in)
				if err != nil {
					return nil, err
				}
				return e.SolvePrepared(ctx, p, nil)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0: // repeatable valid instance: first solve fills the cache, rest hit
					in := multiComponentInstance(uint64(1+(g+i)%3), 2, 4, 10, 2, 0.5)
					if _, err := solve(ctx, in); err != nil {
						t.Errorf("valid solve failed: %v", err)
					}
				case 1: // distinct valid instance: always a fresh solve
					in := multiComponentInstance(uint64(1000+g*iters+i), 2, 4, 12, 2, 0.5)
					if _, err := solve(ctx, in); err != nil {
						t.Errorf("distinct solve failed: %v", err)
					}
				case 2: // solver error: must land in Errors, never in the cache
					in := multiComponentInstance(uint64(500+g), 2, 4, failItems, 2, 0.5)
					if _, err := solve(ctx, in); !errors.Is(err, errFlaky) {
						t.Errorf("flaky solve: err = %v, want errFlaky", err)
					}
				case 3: // dead-on-arrival context: must land in Canceled
					in := multiComponentInstance(uint64(1+(g+i)%3), 2, 4, 10, 2, 0.5)
					if _, err := solve(canceledCtx, in); !errors.Is(err, context.Canceled) {
						t.Errorf("canceled solve: err = %v, want context.Canceled", err)
					}
					// Invalid instances are rejected before admission and
					// must not move any counter.
					bad := multiComponentInstance(uint64(g), 1, 3, 2, 3, 0.5) // k > m
					if _, err := solve(ctx, bad); err == nil {
						t.Error("invalid instance accepted")
					}
				}
			}
		}()
	}
	wg.Wait()

	st := e.Stats()
	assertCounterIdentity(t, st)
	// Every admitted call either ends in a Solves bucket or joins another
	// call's flight; no leader here is canceled mid-flight, so no joiner
	// goes around to count twice.
	total := uint64(goroutines * iters)
	if st.Solves+st.Joins != total {
		t.Errorf("Solves + Joins = %d + %d, want %d (one per admitted call)", st.Solves, st.Joins, total)
	}
	if st.Leads != st.Solves {
		t.Errorf("Leads = %d, want Solves = %d", st.Leads, st.Solves)
	}
	if st.CacheHits == 0 || st.Solved == 0 || st.Canceled == 0 || st.Errors == 0 {
		t.Errorf("stress mix did not exercise every bucket: %+v", st)
	}
	// Errored solves never fill the cache, so retries miss again; DOA cancels
	// never reach the cache. Hence misses split exactly into solved + errored.
	if st.CacheMisses != st.Solved+st.Errors {
		t.Errorf("CacheMisses = %d, want Solved+Errors = %d", st.CacheMisses, st.Solved+st.Errors)
	}
	wantCanceled := uint64(goroutines * iters / 4)
	if st.Canceled != wantCanceled {
		t.Errorf("Canceled = %d, want %d", st.Canceled, wantCanceled)
	}
	wantErrors := uint64(goroutines * iters / 4)
	if st.Errors != wantErrors {
		t.Errorf("Errors = %d, want %d", st.Errors, wantErrors)
	}
}

// TestEngineErrorCountedOnceWithCacheDisabled: the identity holds with the
// cache off too (no miss counter in play at all).
func TestEngineErrorCountedOnceWithCacheDisabled(t *testing.T) {
	e := New(Options{
		Workers:   2,
		CacheSize: -1,
		NewSolver: func() core.Solver { return flakySolver{failItems: 9} },
	})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Solve(ctx, multiComponentInstance(1, 2, 4, 9, 2, 0.5)); !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want errFlaky", err)
	}
	if _, err := e.Solve(ctx, multiComponentInstance(2, 2, 4, 12, 2, 0.5)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	assertCounterIdentity(t, st)
	if st.Solves != 2 || st.Errors != 1 || st.Solved != 1 {
		t.Errorf("stats = %+v, want Solves=2 Errors=1 Solved=1", st)
	}
}
