package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/engine"
)

func newTestManager(t *testing.T, opts Options) (*Manager, *engine.Engine) {
	t.Helper()
	if opts.Engine == nil {
		opts.Engine = engine.New(engine.Options{Workers: 2})
		t.Cleanup(opts.Engine.Close)
	}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, opts.Engine
}

func testInstance(seed uint64) *core.Instance {
	return datasets.MultiGroup(seed, 2, 4, 12, 2, 0.5)
}

// TestEventValidate: each event type accepts exactly its own fields.
func TestEventValidate(t *testing.T) {
	pref := make([]float64, 3)
	valid := []Event{
		{Type: EventJoin, Pref: pref},
		{Type: EventJoin, Pref: pref, Friends: []TieJSON{{ID: 0}}},
		{Type: EventLeave, User: 1},
		{Type: EventUpdatePreference, User: 0, Pref: pref},
		{Type: EventRebalance},
		{Type: EventRebalance, MaxPasses: MaxRebalancePasses},
	}
	for i, ev := range valid {
		if err := ev.Validate(); err != nil {
			t.Errorf("valid event %d rejected: %v", i, err)
		}
	}
	invalid := []Event{
		{},                                     // no type
		{Type: "jump"},                         // unknown type
		{Type: EventJoin},                      // join without pref
		{Type: EventJoin, Pref: pref, User: 2}, // join with user
		{Type: EventJoin, Pref: pref, MaxPasses: 1},                              // join with passes
		{Type: EventJoin, Pref: pref, Friends: []TieJSON{{ID: 1}, {ID: 1}}},      // duplicate friend
		{Type: EventLeave, User: -1},                                             // negative user
		{Type: EventLeave, User: 1, Pref: pref},                                  // leave with pref
		{Type: EventUpdatePreference, User: 0},                                   // update without pref
		{Type: EventUpdatePreference, User: 0, Pref: pref, Friends: []TieJSON{}}, // update with friends
		{Type: EventRebalance, MaxPasses: MaxRebalancePasses + 1},                // unbounded passes
		{Type: EventRebalance, MaxPasses: -1},
		{Type: EventRebalance, User: 3},
	}
	for i, ev := range invalid {
		if err := ev.Validate(); err == nil {
			t.Errorf("invalid event %d accepted", i)
		}
	}
}

// TestManagerReplayEquivalence: applying a generated trace through the
// manager produces, bit for bit, the value and version an offline
// core.DynamicSession replay of the same trace reaches from the same solve.
func TestManagerReplayEquivalence(t *testing.T) {
	m, eng := newTestManager(t, Options{})
	in := testInstance(11)
	events := GenerateEvents(in.NumUsers(), in.NumItems, 30, 99)

	snap, sol, err := m.CreateWith(context.Background(), in, CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var res ApplyResult
	for at := 0; at < len(events); at += 7 {
		end := min(at+7, len(events))
		res, err = m.Apply(snap.ID, events[at:end])
		if err != nil {
			t.Fatalf("events[%d:%d]: %v", at, end, err)
		}
	}
	if res.Version != uint64(len(events)) {
		t.Fatalf("version = %d, want %d", res.Version, len(events))
	}

	// Offline replay from the same engine solve (cache-hit: identical
	// configuration) through the same Apply semantics.
	offSol, err := eng.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.NewDynamicSession(in, offSol.Config, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Replay(ds, events); err != nil {
		t.Fatalf("offline replay stopped at %d: %v", n, err)
	}
	if got := ds.Value(); got != res.Value {
		t.Fatalf("online value %v != offline replay value %v", res.Value, got)
	}
	_ = sol

	final, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Value != res.Value || final.Version != res.Version {
		t.Fatalf("snapshot (%v, v%d) != last apply (%v, v%d)",
			final.Value, final.Version, res.Value, res.Version)
	}
	if got := len(final.Active); got != len(ds.ActiveUsers()) {
		t.Fatalf("active count %d != offline %d", got, len(ds.ActiveUsers()))
	}
}

// TestApplyPartialBatch: a failing event stops the batch, keeps the applied
// prefix, and reports the failure's index; the version counts only applied
// events.
func TestApplyPartialBatch(t *testing.T) {
	m, _ := newTestManager(t, Options{})
	in := testInstance(12)
	snap, _, err := m.CreateWith(context.Background(), in, CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Event{
		{Type: EventLeave, User: 0},
		{Type: EventLeave, User: 0}, // double leave: fails
		{Type: EventLeave, User: 1}, // never applied
	}
	res, err := m.Apply(snap.ID, batch)
	if err == nil {
		t.Fatal("partial batch reported success")
	}
	if len(res.Results) != 1 || res.Version != 1 {
		t.Fatalf("applied %d events at version %d, want 1 at 1", len(res.Results), res.Version)
	}
	after, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Active) != in.NumUsers()-1 {
		t.Fatalf("active = %d, want %d (only the first leave applied)", len(after.Active), in.NumUsers()-1)
	}
}

// TestManagerAdmission: the session bound rejects creates with ErrLimit and
// frees capacity on delete.
func TestManagerAdmission(t *testing.T) {
	m, _ := newTestManager(t, Options{MaxSessions: 2})
	ctx := context.Background()
	a, _, err := m.CreateWith(ctx, testInstance(1), CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.CreateWith(ctx, testInstance(2), CreateSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.CreateWith(ctx, testInstance(3), CreateSpec{}); !errors.Is(err, ErrLimit) {
		t.Fatalf("third create: %v, want ErrLimit", err)
	}
	if err := m.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.CreateWith(ctx, testInstance(3), CreateSpec{}); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
	if err := m.Delete(a.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	st := m.Stats()
	if st.Live != 2 || st.Created != 3 || st.Rejected != 1 || st.Deleted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestManagerTTLEviction: sessions idle past the TTL are evicted; activity
// (events or reads) keeps them alive.
func TestManagerTTLEviction(t *testing.T) {
	m, _ := newTestManager(t, Options{TTL: time.Hour})
	ctx := context.Background()
	idle, _, err := m.CreateWith(ctx, testInstance(4), CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	busy, _, err := m.CreateWith(ctx, testInstance(5), CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}

	// Fake clock: jump 90 minutes, but touch `busy` 30 minutes in.
	base := time.Now()
	m.now = func() time.Time { return base.Add(30 * time.Minute) }
	if _, err := m.Apply(busy.ID, []Event{{Type: EventRebalance, MaxPasses: 1}}); err != nil {
		t.Fatal(err)
	}
	m.now = func() time.Time { return base.Add(90 * time.Minute) }
	if got := m.EvictIdle(); got != 1 {
		t.Fatalf("evicted %d sessions, want 1", got)
	}
	if _, err := m.Snapshot(idle.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("idle session still reachable: %v", err)
	}
	if _, err := m.Snapshot(busy.ID); err != nil {
		t.Fatalf("busy session evicted: %v", err)
	}
	if st := m.Stats(); st.Evicted != 1 || st.Live != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDriftRepairSwapsAndKeeps: a session whose configuration has drifted
// below what a full re-solve achieves gets the re-solve swapped in (version
// bump, swap counter); a session already at the re-solved value keeps its
// configuration.
func TestDriftRepairSwapsAndKeeps(t *testing.T) {
	m, _ := newTestManager(t, Options{RepairMargin: -1}) // swap on any strict improvement
	ctx := context.Background()
	in := testInstance(6)
	// Whole-instance, cold re-solves: the delta path and warm starts have
	// their own tests; this one pins the classic swap/keep state machine. A
	// solver stripped of ComponentSafe and WarmStarter selects that path.
	snap, sol, err := m.CreateWith(ctx, in, CreateSpec{Solver: engine.Uncached{S: &core.AVGDSolver{}}})
	if err != nil {
		t.Fatal(err)
	}

	// Degrade the live configuration to a valid but deliberately bad one:
	// every shopper sees items 0..k-1, ignoring preferences and friends.
	s, err := m.get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	bad := core.NewConfiguration(in.NumUsers(), in.K)
	for u := range bad.Assign {
		for sl := range bad.Assign[u] {
			bad.Assign[u][sl] = sl
		}
	}
	if err := s.ds.Adopt(bad); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.value = s.ds.Value()
	degraded := s.value
	s.mu.Unlock()
	if degraded >= sol.Report.Weighted() {
		t.Fatalf("degraded value %v not below solved %v; test instance too easy", degraded, sol.Report.Weighted())
	}

	m.RepairAll(ctx)
	repaired, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Metrics.RepairSwaps != 1 {
		t.Fatalf("repair swaps = %d, want 1 (value %v -> %v)", repaired.Metrics.RepairSwaps, degraded, repaired.Value)
	}
	if repaired.Value <= degraded {
		t.Fatalf("repair did not improve value: %v -> %v", degraded, repaired.Value)
	}
	if repaired.Version != snap.Version+1 {
		t.Fatalf("swap did not bump version: %d -> %d", snap.Version, repaired.Version)
	}

	// A repair cycle on an untouched session is skipped outright; advance the
	// version with a rebalance so the second cycle actually re-solves.
	res, err := m.Apply(snap.ID, []Event{{Type: EventRebalance, MaxPasses: 2}})
	if err != nil {
		t.Fatal(err)
	}

	// Second cycle: the configuration now IS the full re-solve — keep.
	m.RepairAll(ctx)
	kept, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Metrics.RepairKeeps != 1 || kept.Metrics.RepairSwaps != 1 {
		t.Fatalf("second cycle: swaps=%d keeps=%d, want 1/1", kept.Metrics.RepairSwaps, kept.Metrics.RepairKeeps)
	}
	if kept.Version != res.Version {
		t.Fatalf("keep bumped version: %d -> %d", res.Version, kept.Version)
	}
	st := m.Stats()
	if st.RepairRuns != 2 || st.RepairSwaps != 1 || st.RepairKeeps != 1 || st.RepairErrors != 0 {
		t.Fatalf("manager repair stats = %+v", st)
	}
	if st.RepairCold != 2 || st.RepairWarm != 0 {
		t.Fatalf("cold-only solver ran warm solves: %+v", st)
	}

	// Third cycle: nothing moved since the keep — skipped without a solve.
	m.RepairAll(ctx)
	if st := m.Stats(); st.RepairRuns != 2 || st.RepairSkips != 1 {
		t.Fatalf("third cycle: runs=%d skips=%d, want 2/1", st.RepairRuns, st.RepairSkips)
	}
}

// TestDriftRepairStale: events that land while a repair solve is in flight
// make its solution stale; the repair must discard it rather than clobber
// state it never saw.
func TestDriftRepairStale(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	eng := engine.New(engine.Options{
		Workers:   1,
		CacheSize: -1,
		NewSolver: func() core.Solver {
			return &gatedSolver{gate: gate, started: started, inner: &core.AVGDSolver{}}
		},
	})
	t.Cleanup(eng.Close)
	m, _ := newTestManager(t, Options{Engine: eng, RepairMargin: -1})

	in := testInstance(7)
	// Create solves once through the gate.
	createDone := make(chan struct{})
	var snap Snapshot
	var createErr error
	go func() {
		defer close(createDone)
		snap, _, createErr = m.CreateWith(context.Background(), in, CreateSpec{})
	}()
	<-started
	gate <- struct{}{}
	<-createDone
	if createErr != nil {
		t.Fatal(createErr)
	}

	// Start a repair cycle; while its solve is parked on the gate, apply an
	// event. The repair's version check must then discard the solution.
	repairDone := make(chan struct{})
	go func() {
		defer close(repairDone)
		m.RepairAll(context.Background())
	}()
	<-started
	if _, err := m.Apply(snap.ID, []Event{{Type: EventLeave, User: 0}}); err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	<-repairDone

	after, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Metrics.RepairStale != 1 || after.Metrics.RepairSwaps != 0 {
		t.Fatalf("stale=%d swaps=%d, want 1/0", after.Metrics.RepairStale, after.Metrics.RepairSwaps)
	}
	if st := m.Stats(); st.RepairStale != 1 {
		t.Fatalf("manager stale counter = %d, want 1", st.RepairStale)
	}
}

// gatedSolver parks each Solve until the gate is fed, signalling `started`
// when a solve begins.
type gatedSolver struct {
	gate    <-chan struct{}
	started chan<- struct{}
	inner   core.Solver
}

func (g *gatedSolver) Name() string { return "gated" }

func (g *gatedSolver) Solve(ctx context.Context, in *core.Instance) (*core.Solution, error) {
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.gate
	return g.inner.Solve(ctx, in)
}

// TestManagerClosed: every entry point fails cleanly after Close.
func TestManagerClosed(t *testing.T) {
	m, _ := newTestManager(t, Options{})
	snap, _, err := m.CreateWith(context.Background(), testInstance(8), CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, _, err := m.CreateWith(context.Background(), testInstance(9), CreateSpec{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := m.Apply(snap.ID, []Event{{Type: EventRebalance}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v", err)
	}
	if _, err := m.Snapshot(snap.ID); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot after close: %v", err)
	}
	m.Close() // idempotent
}

// TestManagerStress races concurrent event application, snapshots, deletes,
// drift repair and TTL sweeps across many sessions. It runs in the -short
// lane on purpose: that is the CI lane with -race, and racing the event path
// against the repair loop is this test's whole reason to exist. The
// assertions are version monotonicity per session and counter consistency
// at quiescence.
func TestManagerStress(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4})
	t.Cleanup(eng.Close)
	m, _ := newTestManager(t, Options{
		Engine:         eng,
		MaxSessions:    16,
		TTL:            time.Hour, // sweeps run, nothing qualifies
		RepairInterval: 2 * time.Millisecond,
		RepairMargin:   -1,
	})
	ctx := context.Background()

	const sessions = 6
	ids := make([]string, sessions)
	for i := range ids {
		snap, _, err := m.CreateWith(ctx, testInstance(uint64(20+i)), CreateSpec{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}

	var wg sync.WaitGroup
	errCh := make(chan error, sessions*2+2)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			in := testInstance(uint64(20 + i))
			events := GenerateEvents(in.NumUsers(), in.NumItems, 40, uint64(i))
			last := uint64(0)
			for at := 0; at < len(events); at += 3 {
				end := min(at+3, len(events))
				res, err := m.Apply(id, events[at:end])
				if err != nil {
					errCh <- fmt.Errorf("session %s events[%d:%d]: %w", id, at, end, err)
					return
				}
				if res.Version <= last {
					errCh <- fmt.Errorf("session %s: version not monotone (%d -> %d)", id, last, res.Version)
					return
				}
				last = res.Version
			}
		}(i, id)
	}
	// Concurrent readers.
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				if _, err := m.Snapshot(id); err != nil {
					errCh <- fmt.Errorf("snapshot %s: %w", id, err)
					return
				}
			}
		}(id)
	}
	// Churn on extra sessions: create + delete in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			snap, _, err := m.CreateWith(ctx, testInstance(uint64(50+j)), CreateSpec{})
			if err != nil {
				if errors.Is(err, ErrLimit) {
					continue
				}
				errCh <- err
				return
			}
			if err := m.Delete(snap.ID); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// Explicit repair cycles racing the ticker-driven ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			m.RepairAll(ctx)
			m.EvictIdle()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := m.Stats()
	if st.EventsApplied != st.Joins+st.Leaves+st.Updates+st.Rebalances {
		t.Fatalf("event counter identity broken: %+v", st)
	}
	if want := uint64(sessions * 40); st.EventsApplied != want {
		t.Fatalf("events applied = %d, want %d", st.EventsApplied, want)
	}
	if done := st.RepairSwaps + st.RepairKeeps + st.RepairStale + st.RepairErrors; done > st.RepairRuns {
		t.Fatalf("repair counter identity broken: %d outcomes > %d runs", done, st.RepairRuns)
	}
	// Per-session metrics agree with the trace sizes.
	for _, id := range ids {
		snap, err := m.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Metrics.EventsApplied != 40 {
			t.Fatalf("session %s: %d events, want 40", id, snap.Metrics.EventsApplied)
		}
		if snap.Version < 40 {
			t.Fatalf("session %s: version %d < events applied", id, snap.Version)
		}
	}
}

// TestSeededIDsReproducible: a fixed Options.Seed reproduces the exact
// session-id sequence, and the zero seed (crypto/rand) diverges.
func TestSeededIDsReproducible(t *testing.T) {
	mint := func(opts Options) []string {
		m, _ := newTestManager(t, opts)
		ids := make([]string, 3)
		for i := range ids {
			ids[i] = m.newID()
		}
		return ids
	}
	a, b := mint(Options{Seed: 7}), mint(Options{Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded id sequence diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := mint(Options{Seed: 8})
	if a[0] == c[0] {
		t.Fatalf("different seeds minted the same id tail: %q", a[0])
	}
}

// TestDriftRepairDelta: when only one connected component's utilities have
// changed since the last repair, the repair re-solves exactly that component
// (warm-started from the incumbent rows) and overlays the result — the rows
// of untouched components come through the swap byte-identical.
func TestDriftRepairDelta(t *testing.T) {
	m, _ := newTestManager(t, Options{RepairMargin: -1})
	ctx := context.Background()
	in := testInstance(6) // two 4-user components: users 0-3 and 4-7
	snap, _, err := m.CreateWith(ctx, in, CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}

	// Degrade the whole configuration out-of-band, then clear the dirty
	// flags: from the repair loop's point of view, only what the next event
	// touches has changed.
	s, err := m.get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	bad := core.NewConfiguration(in.NumUsers(), in.K)
	for u := range bad.Assign {
		for sl := range bad.Assign[u] {
			bad.Assign[u][sl] = sl
		}
	}
	if err := s.ds.Adopt(bad); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.ds.ClearDirty()
	s.value = s.ds.Value()
	s.mu.Unlock()

	// Touch user 0: only the 0-3 component becomes dirty.
	pref := make([]float64, in.NumItems)
	pref[in.NumItems-1] = 5
	res, err := m.Apply(snap.ID, []Event{{Type: EventUpdatePreference, User: 0, Pref: pref}})
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}

	m.RepairAll(ctx)
	rep, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.RepairSwaps != 1 {
		t.Fatalf("delta repair swaps = %d, want 1 (value %v -> %v)", rep.Metrics.RepairSwaps, before.Value, rep.Value)
	}
	if rep.Value <= before.Value {
		t.Fatalf("delta repair did not improve value: %v -> %v", before.Value, rep.Value)
	}
	if rep.Version != res.Version+1 {
		t.Fatalf("swap did not bump version: %d -> %d", res.Version, rep.Version)
	}
	// The untouched component's rows came through the overlay unchanged.
	for u := 4; u < 8; u++ {
		for sl, it := range rep.Assignment[u] {
			if it != before.Assignment[u][sl] {
				t.Fatalf("delta repair rewrote untouched user %d: %v -> %v", u, before.Assignment[u], rep.Assignment[u])
			}
		}
	}
	st := m.Stats()
	if st.RepairRuns != 1 {
		t.Fatalf("repair runs = %d, want 1 (one dirty component, one batch)", st.RepairRuns)
	}
	if st.RepairWarm != 1 || st.RepairCold != 0 {
		t.Fatalf("warm/cold = %d/%d, want 1/0 (AVG-D warm-starts)", st.RepairWarm, st.RepairCold)
	}

	// Nothing changed since the swap: the next cycle is a free skip.
	m.RepairAll(ctx)
	if st := m.Stats(); st.RepairRuns != 1 || st.RepairSkips != 1 {
		t.Fatalf("post-swap cycle: runs=%d skips=%d, want 1/1", st.RepairRuns, st.RepairSkips)
	}
}

// TestDriftRepairWholeWarm: a repair on the whole-instance path (a size-capped
// session, here with a cap that never binds) still warm-starts when the
// solver supports it, and a warm-started repair never lands below the
// incumbent value (the incumbent is the floor of the warm solve).
func TestDriftRepairWholeWarm(t *testing.T) {
	m, _ := newTestManager(t, Options{RepairMargin: -1})
	ctx := context.Background()
	in := testInstance(6)
	snap, _, err := m.CreateWith(ctx, in, CreateSpec{SizeCap: in.NumUsers()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	bad := core.NewConfiguration(in.NumUsers(), in.K)
	for u := range bad.Assign {
		for sl := range bad.Assign[u] {
			bad.Assign[u][sl] = sl
		}
	}
	if err := s.ds.Adopt(bad); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.value = s.ds.Value()
	degraded := s.value
	s.mu.Unlock()

	m.RepairAll(ctx)
	rep, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.RepairSwaps != 1 {
		t.Fatalf("warm whole repair swaps = %d, want 1", rep.Metrics.RepairSwaps)
	}
	if rep.Value < degraded {
		t.Fatalf("warm repair lost value: %v -> %v", degraded, rep.Value)
	}
	st := m.Stats()
	if st.RepairRuns != 1 || st.RepairWarm != 1 || st.RepairCold != 0 {
		t.Fatalf("runs/warm/cold = %d/%d/%d, want 1/1/0", st.RepairRuns, st.RepairWarm, st.RepairCold)
	}
}
