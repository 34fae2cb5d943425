package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/core"
)

// gateSolver blocks every Solve on a gate channel and counts executions —
// the deterministic way to hold a request in flight while concurrent
// duplicates pile up on its flight.
type gateSolver struct {
	gate  <-chan struct{} // closed by the test to release all solves
	runs  *atomic.Int64
	inner core.Solver
}

func (g *gateSolver) Name() string { return "gate" }

func (g *gateSolver) Solve(ctx context.Context, in *core.Instance) (*core.Solution, error) {
	g.runs.Add(1)
	<-g.gate
	return g.inner.Solve(ctx, in)
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescerCollapsesConcurrentDuplicates is the flash-crowd property: N
// concurrent identical requests run the solver exactly once, everyone gets a
// correct configuration, and the copies are independently mutable.
func TestCoalescerCollapsesConcurrentDuplicates(t *testing.T) {
	const n = 6
	gate := make(chan struct{})
	var runs atomic.Int64
	e := New(Options{
		Workers:   1,
		CacheSize: -1, // cache off: any collapse below is coalescing's doing
		NewSolver: func() core.Solver {
			return &gateSolver{gate: gate, runs: &runs, inner: &core.AVGDSolver{}}
		},
	})
	defer e.Close()

	in := multiComponentInstance(7, 1, 6, 12, 3, 0.5)
	sols := make([]*core.Solution, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sols[i], errs[i] = e.Solve(context.Background(), in)
		}()
	}
	// One leader is stuck on the gate; everyone else must park on its call.
	waitFor(t, "leader to start", func() bool { return runs.Load() == 1 })
	waitFor(t, "followers to join", func() bool { return e.Stats().Joins == n-1 })
	close(gate)
	wg.Wait()

	want, _, err := core.SolveAVGD(in, core.AVGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		for u := range want.Assign {
			for s := range want.Assign[u] {
				if sols[i].Config.Assign[u][s] != want.Assign[u][s] {
					t.Fatalf("request %d diverges from SolveAVGD at (%d,%d)", i, u, s)
				}
			}
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("solver ran %d times, want 1", got)
	}
	if st := e.Stats(); st.Solved != 1 {
		t.Errorf("engine Solved = %d, want 1", st.Solved)
	}
	if st := e.Stats(); st.Leads != 1 || st.Joins != n-1 {
		t.Errorf("coalesce stats = %+v, want 1 lead / %d joins", st, n-1)
	}
	// Deep-copy fan-out: mutating one caller's result must not reach another.
	sols[0].Config.Assign[0][0] = -42
	for i := 1; i < n; i++ {
		if sols[i].Config.Assign[0][0] == -42 {
			t.Fatalf("request %d shares memory with request 0", i)
		}
	}
}

// TestCoalescerJoinersWithCacheOn: with the cache on, the leader's one clone
// is both the cache entry and the joiners' source. Each joiner still gets its
// own copy, so no caller's mutation reaches another caller or a later hit.
func TestCoalescerJoinersWithCacheOn(t *testing.T) {
	const n = 3
	gate := make(chan struct{})
	var runs atomic.Int64
	e := New(Options{
		Workers:   1,
		CacheSize: 8,
		NewSolver: func() core.Solver {
			return &gateSolver{gate: gate, runs: &runs, inner: &core.AVGDSolver{}}
		},
	})
	defer e.Close()
	in := multiComponentInstance(15, 1, 5, 10, 2, 0.5)
	want, _, err := core.SolveAVGD(in, core.AVGDOptions{})
	if err != nil {
		t.Fatal(err)
	}

	sols := make([]*core.Solution, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sols[i], errs[i] = e.Solve(context.Background(), in)
		}()
	}
	waitFor(t, "leader to start", func() bool { return runs.Load() == 1 })
	waitFor(t, "followers to join", func() bool { return e.Stats().Joins == n-1 })
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		sols[i].Config.Assign[0][0] = -100 - i
	}
	for i, sol := range sols {
		if got := sol.Config.Assign[0][0]; got != -100-i {
			t.Fatalf("request %d shares memory with another caller: item %d", i, got)
		}
	}
	hit, err := e.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got := hit.Config.Assign[0][0]; got != want.Assign[0][0] {
		t.Fatalf("cache hit serves item %d, want %d: a caller's mutation reached the entry", got, want.Assign[0][0])
	}
	if st := e.Stats(); st.Solved != 1 || st.CacheMisses != 1 || st.CacheHits != 1 || st.Joins != n-1 {
		t.Errorf("stats = %+v, want 1 solved, 1 miss, 1 hit and %d joins", st, n-1)
	}
}

// TestCoalescerFollowerHonorsOwnContext: a parked follower can give up on
// its own deadline without disturbing the leader.
func TestCoalescerFollowerHonorsOwnContext(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	e := New(Options{
		Workers:   1,
		CacheSize: -1,
		NewSolver: func() core.Solver {
			return &gateSolver{gate: gate, runs: &runs, inner: &core.AVGDSolver{}}
		},
	})
	defer e.Close()
	in := multiComponentInstance(8, 1, 5, 10, 2, 0.5)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), in)
		leaderDone <- err
	}()
	waitFor(t, "leader to start", func() bool { return runs.Load() == 1 })

	fctx, fcancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := e.Solve(fctx, in)
		followerDone <- err
	}()
	waitFor(t, "follower to join", func() bool { return e.Stats().Joins == 1 })
	fcancel()
	if err := <-followerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower error = %v, want context.Canceled", err)
	}

	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after follower cancel: %v", err)
	}
}

// TestCoalescerLeaderErrorFansOut: a solver failure reaches every parked
// follower, and the failed flight is unregistered so a retry leads afresh.
func TestCoalescerLeaderErrorFansOut(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	e := New(Options{
		Workers:   1,
		CacheSize: -1,
		NewSolver: func() core.Solver {
			return &gateSolver{gate: gate, runs: &runs, inner: flakySolver{failItems: 10}}
		},
	})
	defer e.Close()
	in := multiComponentInstance(9, 1, 5, 10, 2, 0.5) // m=10 trips the flaky solver

	results := make(chan error, 2)
	go func() { _, err := e.Solve(context.Background(), in); results <- err }()
	waitFor(t, "leader to start", func() bool { return runs.Load() == 1 })
	go func() { _, err := e.Solve(context.Background(), in); results <- err }()
	waitFor(t, "follower to join", func() bool { return e.Stats().Joins == 1 })
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err == nil || !errors.Is(err, errFlaky) {
			t.Fatalf("result %d: err = %v, want flaky failure", i, err)
		}
	}
	if st := e.Stats(); st.Leads != 1 || st.Joins != 1 {
		t.Errorf("coalesce stats after error = %+v", st)
	}
	// The flight is gone: the next identical request leads again.
	if _, err := e.Solve(context.Background(), in); err == nil {
		t.Fatal("retry unexpectedly succeeded")
	}
	if st := e.Stats(); st.Leads != 2 {
		t.Errorf("retry did not lead a fresh flight: %+v", st)
	}
}

// TestCoalescerBatchCollapsesInternalDuplicates: duplicates inside one batch
// collapse onto the same flight as duplicates across requests.
func TestCoalescerBatchCollapsesInternalDuplicates(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	e := New(Options{
		Workers:   1,
		CacheSize: -1,
		NewSolver: func() core.Solver {
			return &gateSolver{gate: gate, runs: &runs, inner: &core.AVGDSolver{}}
		},
	})
	defer e.Close()

	a := multiComponentInstance(11, 1, 5, 12, 2, 0.5)
	b := multiComponentInstance(12, 1, 5, 12, 2, 0.5)
	done := make(chan struct{})
	var sols []*core.Solution
	var batchErr error
	go func() {
		defer close(done)
		sols, batchErr = e.SolveBatch(context.Background(), []*core.Instance{a, a, a, b})
	}()
	// Two flights (a's leader and b's leader) and two joined duplicates of a.
	waitFor(t, "duplicates to join", func() bool { return e.Stats().Joins == 2 })
	close(gate)
	<-done
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if st := e.Stats(); st.Leads != 2 || st.Joins != 2 {
		t.Errorf("coalesce stats = %+v, want 2 leads / 2 joins", st)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("solver ran %d times, want 2", got)
	}
	for i, sol := range sols {
		in := a
		if i == 3 {
			in = b
		}
		if err := sol.Config.Validate(in); err != nil {
			t.Errorf("batch result %d: %v", i, err)
		}
	}
}

// TestCoalescerSequentialCallsDoNotCoalesce: with no overlap there is nothing
// to collapse — every call leads (and, with the cache off, solves).
func TestCoalescerSequentialCallsDoNotCoalesce(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: -1})
	defer e.Close()
	in := multiComponentInstance(13, 2, 4, 10, 2, 0.5)
	for i := 0; i < 3; i++ {
		if _, err := e.Solve(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Leads != 3 || st.Joins != 0 {
		t.Errorf("coalesce stats = %+v, want 3 leads / 0 joins", st)
	}
	if st := e.Stats(); st.Solved != 3 {
		t.Errorf("engine Solved = %d, want 3 (cache off, no overlap)", st.Solved)
	}
}

// TestCoalescerRejectsInvalidInstance: validation runs before any flight,
// its error comes back unchanged, and the rejected call does not poison
// later requests on the same key.
func TestCoalescerRejectsInvalidInstance(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: -1})
	defer e.Close()
	invalid := multiComponentInstance(14, 1, 4, 10, 2, 0.5)
	invalid.K = invalid.NumItems + 1 // k > m
	wantErr := invalid.Validate()
	if wantErr == nil {
		t.Fatal("test instance unexpectedly valid")
	}
	if _, err := e.Solve(context.Background(), invalid); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("err = %v, want the engine's validation error %v", err, wantErr)
	}
	// Rejected calls never touch engine counters, and the flight is gone.
	if st := e.Stats(); st.Solves != 0 {
		t.Errorf("invalid instance moved engine counters: %+v", st)
	}
	valid := multiComponentInstance(14, 1, 4, 10, 2, 0.5)
	if _, err := e.Solve(context.Background(), valid); err != nil {
		t.Fatalf("valid instance after invalid flight: %v", err)
	}
}

// TestCoalescerFollowerRetriesAfterLeaderCancel: when the leader's own
// context dies mid-solve, a follower with a live context goes around and
// leads a fresh flight instead of inheriting an error that was never its —
// one impatient client must not fail the whole crowd.
func TestCoalescerFollowerRetriesAfterLeaderCancel(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	e := New(Options{
		Workers:   1,
		CacheSize: -1,
		NewSolver: func() core.Solver {
			return &gateSolver{gate: gate, runs: &runs, inner: &core.AVGDSolver{}}
		},
	})
	defer e.Close()

	// A blocker on a different instance pins the only worker behind the
	// gate, so the leader below is stuck at the submit select and its cancel
	// is observed deterministically.
	blocker := multiComponentInstance(20, 1, 5, 12, 2, 0.5)
	blockerDone := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), blocker)
		blockerDone <- err
	}()
	waitFor(t, "blocker to occupy the worker", func() bool { return runs.Load() == 1 })

	in := multiComponentInstance(21, 1, 4, 10, 2, 0.5)
	lctx, lcancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Solve(lctx, in)
		leaderDone <- err
	}()
	// Leads counts a call only once it ends, so wait on the leader's flight
	// (the blocker's is the other one).
	waitFor(t, "leader to lead", func() bool {
		e.cache.mu.Lock()
		defer e.cache.mu.Unlock()
		return len(e.cache.flights) == 2
	})

	followerDone := make(chan error, 1)
	var followerSol *core.Solution
	go func() {
		sol, err := e.Solve(context.Background(), in)
		followerSol = sol
		followerDone <- err
	}()
	waitFor(t, "follower to join", func() bool { return e.Stats().Joins == 1 })

	lcancel() // the worker is still pinned, so the leader must fail here
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	close(gate) // free the worker so the blocker and the retried flight finish
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	if err := <-followerDone; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if err := followerSol.Config.Validate(in); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Leads != 3 || st.Joins != 1 {
		t.Errorf("coalesce stats = %+v, want 3 leads (blocker, leader, follower retry) / 1 join", st)
	}
}
