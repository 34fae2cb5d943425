package telemetry

import (
	"sort"
	"sync"
	"time"
)

// TrackerOptions configures a Tracker.
type TrackerOptions struct {
	// Clock supplies time to every series window (and to the Controller
	// built over the tracker). Nil means SystemClock.
	Clock Clock
	// Width is the default sliding span of lazily-created series. Zero means
	// DefaultWindowWidth. Ensure widens individual series past it.
	Width time.Duration
	// Buckets is the rotation granularity per series. Zero means
	// DefaultWindowBuckets.
	Buckets int
}

// Tracker is the named-series registry: one sliding Window per latency
// series, created lazily on first Record. The server records its route
// series ("solve", "session_create", ...), the engine hook records
// per-algorithm series ("algo:AVG-D", ...) and the session hook records
// "repair". All methods are safe for concurrent use; reads of a series that
// never recorded report zero.
type Tracker struct {
	clock   Clock
	width   time.Duration
	buckets int

	mu     sync.RWMutex
	series map[string]*Window
}

// NewTracker returns an empty tracker.
func NewTracker(o TrackerOptions) *Tracker {
	if o.Clock == nil {
		o.Clock = SystemClock{}
	}
	if o.Width <= 0 {
		o.Width = DefaultWindowWidth
	}
	if o.Buckets <= 0 {
		o.Buckets = DefaultWindowBuckets
	}
	return &Tracker{
		clock:   o.Clock,
		width:   o.Width,
		buckets: o.Buckets,
		series:  make(map[string]*Window),
	}
}

// Clock returns the tracker's clock (shared with the Controller).
func (t *Tracker) Clock() Clock { return t.clock }

// Now is shorthand for Clock().Now().
func (t *Tracker) Now() time.Time { return t.clock.Now() }

// window returns the named series, creating it at width when absent.
func (t *Tracker) window(name string, width time.Duration) *Window {
	t.mu.RLock()
	w := t.series[name]
	t.mu.RUnlock()
	if w != nil {
		return w
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if w = t.series[name]; w == nil {
		w = NewWindow(WindowOptions{Width: width, Buckets: t.buckets, Clock: t.clock})
		t.series[name] = w
	}
	return w
}

// Ensure pre-creates a series wide enough to cover minWidth — the Controller
// calls it for every objective's series, so an SLO window never exceeds the
// span its series retains. Widening replaces (and empties) a narrower
// existing window; Ensure runs at construction time, before traffic.
func (t *Tracker) Ensure(name string, minWidth time.Duration) {
	if minWidth < t.width {
		minWidth = t.width
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if w := t.series[name]; w != nil && w.Width() >= minWidth {
		return
	}
	t.series[name] = NewWindow(WindowOptions{Width: minWidth, Buckets: t.buckets, Clock: t.clock})
}

// Record adds one latency sample to the named series.
func (t *Tracker) Record(name string, d time.Duration) {
	t.window(name, t.width).Record(d.Seconds())
}

// Window returns the named series, or nil when it never recorded.
func (t *Tracker) Window(name string) *Window {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.series[name]
}

// Names returns every live series name, sorted.
func (t *Tracker) Names() []string {
	t.mu.RLock()
	names := make([]string, 0, len(t.series))
	for name := range t.series {
		names = append(names, name)
	}
	t.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Snapshot summarizes every series that has samples in its window.
func (t *Tracker) Snapshot() map[string]WindowSnapshot {
	out := make(map[string]WindowSnapshot)
	for _, name := range t.Names() {
		if w := t.Window(name); w != nil {
			if snap := w.Snapshot(); snap.Count > 0 {
				out[name] = snap
			}
		}
	}
	return out
}
