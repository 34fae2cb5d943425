package telemetry

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Level is the admission controller's rung on the degradation ladder.
type Level int32

const (
	// LevelNormal: no objective is burning; serve as configured.
	LevelNormal Level = iota
	// LevelDegrade: at least one objective is burning (or still replenishing
	// its budget); requests for expensive solvers are routed to the cheap
	// fallback and marked degraded:true.
	LevelDegrade
	// LevelShed: a breach persisted past escalateAfter despite degradation;
	// the effective in-flight cap is tightened on top of degrading.
	LevelShed
)

// String reports the level the way /v1/stats and /metrics label it.
func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelDegrade:
		return "degrade"
	case LevelShed:
		return "shed"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ObjectiveState is one objective's position in the breach state machine.
type ObjectiveState int32

const (
	// StateOK: not burning.
	StateOK ObjectiveState = iota
	// StateRecovering: the fast window stopped burning but the slow window
	// still holds the breach — budget is replenishing. Holding degradation
	// through this state is the anti-flap mechanism: recovery completes only
	// when the bad samples age out of the slow window.
	StateRecovering
	// StateBreached: both windows burn at ≥ 1× budget.
	StateBreached
)

// String reports the state the way /v1/stats and /metrics label it.
func (s ObjectiveState) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateRecovering:
		return "recovering"
	case StateBreached:
		return "breached"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// The controller's fixed tuning.
const (
	// evalEvery is the re-evaluation cadence: state is recomputed lazily on
	// the first read after the clock passes it (no goroutine, no timer).
	evalEvery = 250 * time.Millisecond
	// escalateAfter is how long a breach may persist (degradation already
	// active) before the controller escalates to shedding.
	escalateAfter = 10 * time.Second
	// minDwell is the minimum time spent on a rung before de-escalating one
	// rung (escalation is never dwelled — protecting the SLO beats ladder
	// hygiene). Bounds flapping together with StateRecovering.
	minDwell = 5 * time.Second
	// shedFactor is the fraction of the configured in-flight cap left while
	// shedding (floor 1).
	shedFactor = 0.5
)

// ControllerOptions configures a Controller.
type ControllerOptions struct {
	// Tracker supplies the latency series and the clock. Required.
	Tracker *Tracker
	// Objectives are the SLOs the controller enforces. At least one.
	Objectives []Objective
}

// objectiveState is one objective's live checker state.
type objectiveState struct {
	obj      Objective
	state    ObjectiveState
	fastBurn float64
	slowBurn float64
	observed float64 // current Quantile over the slow window, seconds
	samples  uint64  // samples in the slow window
}

// ObjectiveStatus is one objective's externally visible state, for
// /v1/stats and /metrics.
type ObjectiveStatus struct {
	Name        string  `json:"name"`
	Series      string  `json:"series"`
	Quantile    float64 `json:"quantile"`
	ThresholdMS float64 `json:"thresholdMs"`
	WindowMS    float64 `json:"windowMs"`
	State       string  `json:"state"`
	FastBurn    float64 `json:"fastBurn"`
	SlowBurn    float64 `json:"slowBurn"`
	ObservedMS  float64 `json:"observedMs"`
	Samples     uint64  `json:"samples"`
}

// ControllerSnapshot is the controller's externally visible state.
type ControllerSnapshot struct {
	Level       string            `json:"level"`
	Transitions uint64            `json:"transitions"`
	Degraded    map[string]uint64 `json:"degradedByAlgo,omitempty"`
	Objectives  []ObjectiveStatus `json:"objectives"`
}

// Controller evaluates the objectives' burn rates against their tracker
// series and walks the degradation ladder Normal → Degrade → Shed (and back
// down, one dwelled rung at a time).
//
// Burn rate is the classic budget-consumption ratio: with budget b = 1 − q
// and bad = the fraction of windowed samples over the threshold, burn =
// bad/b — burn 1.0 consumes exactly the budget, so ≥ 1.0 in BOTH windows is
// a breach (the boundary itself breaches). The fast window (window/12)
// confirms the burn is current; once it clears, the objective holds in
// StateRecovering until the slow window clears too, which keeps degradation
// active while the budget replenishes instead of flapping.
//
// Evaluation is lazy and clock-driven: any read (Level, EffectiveCap,
// Snapshot) past the evalEvery cadence recomputes first. There is no
// background goroutine, so tests on a ManualClock control every step and an
// idle server pays nothing.
type Controller struct {
	tracker *Tracker
	clock   Clock

	mu          sync.Mutex
	objectives  []objectiveState
	level       Level
	levelSince  time.Time
	breachSince time.Time // zero when no objective is breached
	nextEval    time.Time
	transitions uint64
	degraded    map[string]uint64
}

// NewController validates the objectives and sizes their tracker series.
func NewController(o ControllerOptions) (*Controller, error) {
	if o.Tracker == nil {
		return nil, errors.New("telemetry: ControllerOptions.Tracker is required")
	}
	if len(o.Objectives) == 0 {
		return nil, errors.New("telemetry: ControllerOptions.Objectives is empty")
	}
	c := &Controller{
		tracker:    o.Tracker,
		clock:      o.Tracker.Clock(),
		objectives: make([]objectiveState, len(o.Objectives)),
		levelSince: o.Tracker.Clock().Now(),
		degraded:   make(map[string]uint64),
	}
	for i, obj := range o.Objectives {
		if err := obj.Validate(); err != nil {
			return nil, err
		}
		// The series must retain at least the slow window, or the burn
		// would silently read a truncated span.
		o.Tracker.Ensure(obj.Series, obj.Window)
		c.objectives[i] = objectiveState{obj: obj}
	}
	return c, nil
}

// poll recomputes state if the evaluation cadence has passed.
func (c *Controller) poll() {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if now.Before(c.nextEval) {
		return
	}
	c.nextEval = now.Add(evalEvery)
	c.evaluateLocked(now)
}

// Evaluate forces a re-evaluation now, regardless of cadence. Tests use it
// to step the state machine deterministically.
func (c *Controller) Evaluate() {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextEval = now.Add(evalEvery)
	c.evaluateLocked(now)
}

// burnRates reads one objective's fast/slow burn plus observed quantile.
func (c *Controller) burnRates(o Objective) (fast, slow, observed float64, samples uint64) {
	w := c.tracker.Window(o.Series)
	if w == nil {
		return 0, 0, 0, 0
	}
	threshold := o.Threshold.Seconds()
	budget := o.Budget()
	burnOver := func(span time.Duration) float64 {
		d := w.merged(span)
		if d.Count() == 0 {
			return 0
		}
		return (1 - d.CDF(threshold)) / budget
	}
	slowDigest := w.merged(o.Window)
	samples = slowDigest.Count()
	if samples > 0 {
		slow = (1 - slowDigest.CDF(threshold)) / budget
		observed = slowDigest.Quantile(o.Quantile)
	}
	fast = burnOver(o.FastWindow())
	return fast, slow, observed, samples
}

// evaluateLocked recomputes every objective's burn and state, then walks the
// ladder at most one rung. Caller holds c.mu.
func (c *Controller) evaluateLocked(now time.Time) {
	anyBreached, anyActive := false, false
	for i := range c.objectives {
		st := &c.objectives[i]
		st.fastBurn, st.slowBurn, st.observed, st.samples = c.burnRates(st.obj)
		// Breach on the boundary: burn == 1.0 consumes the whole budget.
		switch st.state {
		case StateOK:
			if st.fastBurn >= 1 && st.slowBurn >= 1 {
				st.state = StateBreached
			}
		case StateBreached:
			if st.fastBurn < 1 {
				st.state = StateRecovering
			}
		}
		// Recovering resolves in the same pass: both windows clear together
		// when history ages out at once (e.g. across an idle gap).
		if st.state == StateRecovering {
			switch {
			case st.fastBurn >= 1:
				st.state = StateBreached
			case st.slowBurn < 1:
				st.state = StateOK
			}
		}
		anyBreached = anyBreached || st.state == StateBreached
		anyActive = anyActive || st.state != StateOK
	}

	if anyBreached {
		if c.breachSince.IsZero() {
			c.breachSince = now
		}
	} else {
		c.breachSince = time.Time{}
	}

	// One rung per evaluation. Escalation is immediate (protect the SLO);
	// de-escalation waits out minDwell on the current rung.
	switch c.level {
	case LevelNormal:
		if anyBreached {
			c.setLevel(LevelDegrade, now)
		}
	case LevelDegrade:
		switch {
		case anyBreached && now.Sub(c.breachSince) >= escalateAfter:
			c.setLevel(LevelShed, now)
		case !anyActive && now.Sub(c.levelSince) >= minDwell:
			c.setLevel(LevelNormal, now)
		}
	case LevelShed:
		if !anyBreached && now.Sub(c.levelSince) >= minDwell {
			c.setLevel(LevelDegrade, now)
		}
	}
}

func (c *Controller) setLevel(l Level, now time.Time) {
	c.level = l
	c.levelSince = now
	c.transitions++
}

// Level reports the current ladder rung, re-evaluating first when the
// cadence has passed.
func (c *Controller) Level() Level {
	c.poll()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// EffectiveCap maps the configured in-flight cap to the rung's effective
// one: shedding tightens it to shedFactor × base (floor 1); every other
// rung leaves it alone.
func (c *Controller) EffectiveCap(base int) int {
	if c.Level() != LevelShed {
		return base
	}
	eff := int(float64(base) * shedFactor)
	if eff < 1 {
		eff = 1
	}
	return eff
}

// NoteDegraded counts one request routed away from the named algorithm
// while degraded.
func (c *Controller) NoteDegraded(algo string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.degraded[algo]++
}

// Transitions reports the ladder transition count (the anti-flap budget the
// slo-smoke lane asserts against).
func (c *Controller) Transitions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.transitions
}

// Snapshot reports the controller's externally visible state, re-evaluating
// first when the cadence has passed.
func (c *Controller) Snapshot() ControllerSnapshot {
	c.poll()
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := ControllerSnapshot{
		Level:       c.level.String(),
		Transitions: c.transitions,
		Objectives:  make([]ObjectiveStatus, len(c.objectives)),
	}
	if len(c.degraded) > 0 {
		snap.Degraded = make(map[string]uint64, len(c.degraded))
		for algo, n := range c.degraded {
			snap.Degraded[algo] = n
		}
	}
	for i := range c.objectives {
		st := &c.objectives[i]
		snap.Objectives[i] = ObjectiveStatus{
			Name:        st.obj.String(),
			Series:      st.obj.Series,
			Quantile:    st.obj.Quantile,
			ThresholdMS: float64(st.obj.Threshold.Microseconds()) / 1000,
			WindowMS:    float64(st.obj.Window.Microseconds()) / 1000,
			State:       st.state.String(),
			FastBurn:    st.fastBurn,
			SlowBurn:    st.slowBurn,
			ObservedMS:  st.observed * 1000,
			Samples:     st.samples,
		}
	}
	return snap
}
