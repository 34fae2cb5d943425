package telemetry

import (
	"testing"
	"time"
)

// testController builds a controller on a manual clock over a single p50
// objective with a 50% error budget — chosen because small sample counts
// keep every digest centroid a singleton, making the burn rate EXACT and
// the breach boundary deterministic:
//
//	p50 solve < 100ms over 60s   (fast window 5s, budget 0.5)
//
// One good (50ms) + one bad (200ms) sample burn at exactly 1.0.
func testController(t *testing.T) (*Controller, *Tracker, *ManualClock) {
	t.Helper()
	clk := NewManualClock(time.Unix(10000, 0))
	tr := NewTracker(TrackerOptions{Clock: clk, Width: time.Minute})
	obj, err := ParseObjective("p50 solve < 100ms over 60s")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(ControllerOptions{Tracker: tr, Objectives: []Objective{obj}})
	if err != nil {
		t.Fatal(err)
	}
	return c, tr, clk
}

func objState(t *testing.T, c *Controller) ObjectiveStatus {
	t.Helper()
	snap := c.Snapshot()
	if len(snap.Objectives) != 1 {
		t.Fatalf("want 1 objective, got %d", len(snap.Objectives))
	}
	return snap.Objectives[0]
}

// TestBurnBreachBoundary pins the exact boundary: burn == 1.0 breaches,
// burn just under stays ok, and empty windows never breach.
func TestBurnBreachBoundary(t *testing.T) {
	c, tr, _ := testController(t)

	// Empty windows: burn 0, state ok.
	c.Evaluate()
	if st := objState(t, c); st.State != "ok" || st.FastBurn != 0 || st.SlowBurn != 0 {
		t.Fatalf("empty windows: %+v, want ok with zero burn", st)
	}
	if c.Level() != LevelNormal {
		t.Fatal("empty windows must stay LevelNormal")
	}

	// Exactly on budget: 1 of 2 samples over the threshold consumes exactly
	// the 50% budget — burn 1.0, and the boundary itself breaches.
	tr.Record("solve", 50*time.Millisecond)
	tr.Record("solve", 200*time.Millisecond)
	c.Evaluate()
	st := objState(t, c)
	if st.FastBurn != 1 || st.SlowBurn != 1 {
		t.Fatalf("burn = %g/%g, want exactly 1.0/1.0", st.FastBurn, st.SlowBurn)
	}
	if st.State != "breached" {
		t.Fatalf("state at burn == 1.0 is %q, want breached (boundary breaches)", st.State)
	}
	if c.Level() != LevelDegrade {
		t.Fatalf("level = %v, want degrade on breach", c.Level())
	}
}

// TestBurnJustUnderBoundary: 1 bad of 3 samples burns 2/3 < 1 — no breach.
func TestBurnJustUnderBoundary(t *testing.T) {
	c, tr, _ := testController(t)
	tr.Record("solve", 50*time.Millisecond)
	tr.Record("solve", 99*time.Millisecond)
	tr.Record("solve", 200*time.Millisecond)
	c.Evaluate()
	st := objState(t, c)
	if st.SlowBurn >= 1 {
		t.Fatalf("slow burn = %g, want exactly 2/3", st.SlowBurn)
	}
	if st.State != "ok" || c.Level() != LevelNormal {
		t.Fatalf("state %q level %v, want ok/normal under the boundary", st.State, c.Level())
	}
}

// TestBreachRecovery drives the full objective state machine: breached →
// recovering (fast window clears while the slow one still burns) → ok (slow
// window clears too).
func TestBreachRecovery(t *testing.T) {
	c, tr, clk := testController(t)
	tr.Record("solve", 50*time.Millisecond)
	tr.Record("solve", 200*time.Millisecond)
	c.Evaluate()
	if st := objState(t, c); st.State != "breached" {
		t.Fatalf("state = %q, want breached", st.State)
	}

	// 6s later the 5s fast window has rotated past the bad sample but the
	// 60s slow window still holds it: recovering, not ok — degradation must
	// hold while the budget replenishes (the anti-flap rule).
	clk.Advance(6 * time.Second)
	c.Evaluate()
	st := objState(t, c)
	if st.FastBurn != 0 || st.SlowBurn != 1 {
		t.Fatalf("burn after fast rotation = %g/%g, want 0/1", st.FastBurn, st.SlowBurn)
	}
	if st.State != "recovering" {
		t.Fatalf("state = %q, want recovering", st.State)
	}
	if c.Level() != LevelDegrade {
		t.Fatal("recovering must hold LevelDegrade")
	}

	// Re-breach from recovering when the fast window burns again.
	tr.Record("solve", 50*time.Millisecond)
	tr.Record("solve", 300*time.Millisecond)
	c.Evaluate()
	if st := objState(t, c); st.State != "breached" {
		t.Fatalf("state = %q, want re-breached", st.State)
	}

	// Once everything ages out of the slow window, recovery completes.
	clk.Advance(2 * time.Minute)
	c.Evaluate()
	if st := objState(t, c); st.State != "ok" {
		t.Fatalf("state = %q, want ok after slow window cleared", st.State)
	}
}

// TestLadderEscalationAndRelaxation walks Normal → Degrade → Shed (breach
// persisting past escalateAfter) and back down one dwelled rung at a time,
// with the transition count — the anti-flap budget — exactly 4.
func TestLadderEscalationAndRelaxation(t *testing.T) {
	c, tr, clk := testController(t)
	bad := func() {
		tr.Record("solve", 50*time.Millisecond)
		tr.Record("solve", 200*time.Millisecond)
	}
	bad()
	c.Evaluate()
	if c.Level() != LevelDegrade {
		t.Fatalf("level = %v, want degrade", c.Level())
	}
	if got := c.EffectiveCap(16); got != 16 {
		t.Fatalf("EffectiveCap while degrading = %d, want 16 (degrade does not shed)", got)
	}

	// Breach persists but escalateAfter (10s) has not elapsed: still degrade.
	clk.Advance(4 * time.Second)
	bad()
	c.Evaluate()
	if c.Level() != LevelDegrade {
		t.Fatalf("level before escalateAfter = %v, want degrade", c.Level())
	}

	// Past escalateAfter with the breach still live: shed.
	clk.Advance(7 * time.Second)
	bad()
	c.Evaluate()
	if c.Level() != LevelShed {
		t.Fatalf("level after escalateAfter = %v, want shed", c.Level())
	}
	if got := c.EffectiveCap(16); got != 8 {
		t.Fatalf("EffectiveCap while shedding = %d, want 8", got)
	}
	if got := c.EffectiveCap(1); got != 1 {
		t.Fatalf("EffectiveCap floor = %d, want 1", got)
	}

	// Bad traffic stops. The fast window clears, the breach downgrades to
	// recovering — but de-escalation waits out MinDwell on the shed rung.
	clk.Advance(4 * time.Second)
	c.Evaluate()
	if c.Level() != LevelShed {
		t.Fatal("de-escalation must dwell before leaving shed")
	}
	clk.Advance(2 * time.Second)
	c.Evaluate()
	if c.Level() != LevelDegrade {
		t.Fatalf("level = %v, want degrade one dwell after the breach cleared", c.Level())
	}

	// Degrade holds while the slow window replenishes, then normal.
	clk.Advance(2 * time.Minute)
	c.Evaluate()
	if c.Level() != LevelNormal {
		t.Fatalf("level = %v, want normal after full recovery", c.Level())
	}
	if got := c.Transitions(); got != 4 {
		t.Fatalf("transitions = %d, want exactly 4 (no flapping)", got)
	}
}

// TestLazyEvaluation pins the no-goroutine contract: state only moves when
// a read crosses the evalEvery cadence.
func TestLazyEvaluation(t *testing.T) {
	c, tr, clk := testController(t)
	if c.Level() != LevelNormal {
		t.Fatal("want normal before any traffic")
	}
	tr.Record("solve", 50*time.Millisecond)
	tr.Record("solve", 200*time.Millisecond)
	// The first Level() evaluated at construction-time clock; within the
	// cadence nothing recomputes.
	if c.Level() != LevelNormal {
		t.Fatal("within the eval cadence the stale level must hold")
	}
	clk.Advance(time.Second)
	if c.Level() != LevelDegrade {
		t.Fatal("crossing the eval cadence must recompute")
	}
}

func TestNoteDegradedCounters(t *testing.T) {
	c, _, _ := testController(t)
	c.NoteDegraded("ip")
	c.NoteDegraded("ip")
	c.NoteDegraded("sdp")
	snap := c.Snapshot()
	if snap.Degraded["ip"] != 2 || snap.Degraded["sdp"] != 1 {
		t.Fatalf("Degraded = %v", snap.Degraded)
	}
}

func TestControllerValidation(t *testing.T) {
	tr := NewTracker(TrackerOptions{Clock: NewManualClock(time.Unix(0, 0))})
	if _, err := NewController(ControllerOptions{Objectives: []Objective{{}}}); err == nil {
		t.Fatal("nil tracker must be rejected")
	}
	if _, err := NewController(ControllerOptions{Tracker: tr}); err == nil {
		t.Fatal("empty objectives must be rejected")
	}
	if _, err := NewController(ControllerOptions{Tracker: tr, Objectives: []Objective{{Series: "solve"}}}); err == nil {
		t.Fatal("invalid objective must be rejected")
	}
	// The controller sizes each objective's series to its slow window.
	obj, _ := ParseObjective("p99 solve < 100ms over 10m")
	if _, err := NewController(ControllerOptions{Tracker: tr, Objectives: []Objective{obj}}); err != nil {
		t.Fatal(err)
	}
	if w := tr.Window("solve"); w == nil || w.Width() < 10*time.Minute {
		t.Fatal("controller must widen the objective's series to its window")
	}
}
