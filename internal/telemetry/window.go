package telemetry

import (
	"sync"
	"time"
)

// DefaultWindowWidth is the Width a zero WindowOptions or TrackerOptions
// means.
const DefaultWindowWidth = 5 * time.Minute

// windowBuckets is every window's rotation granularity: a window is a ring
// of Width/windowBuckets-wide digests, so old samples expire one bucket at a
// time and a span reads at that resolution.
const windowBuckets = 12

// WindowOptions configures a Window.
type WindowOptions struct {
	// Width is the total sliding span a full-window read covers. Zero means
	// DefaultWindowWidth.
	Width time.Duration
	// Clock supplies time. Nil means SystemClock.
	Clock Clock
}

// Window is a sliding-time-window quantile estimator: a ring of per-bucket
// t-digests keyed by the absolute bucket number floor(now/bucketWidth).
// There is no rotation goroutine — a bucket whose stored number no longer
// matches its slot is stale and is reset on the next write to that slot,
// and reads only merge buckets whose numbers fall inside the queried span.
//
// Clock-jump policy (pinned by tests): after a backwards jump, writes land
// in the (reset) bucket for the new, earlier time and reads ignore buckets
// stamped in the future; after a forward jump past the width, every old
// bucket falls outside the span and the window reads as empty. Both jumps
// therefore discard history rather than inventing it.
//
// All methods are safe for concurrent use.
type Window struct {
	clock       Clock
	width       time.Duration
	bucketWidth time.Duration

	mu    sync.Mutex
	slots []bucket
}

// bucket is one ring slot: the absolute bucket number it currently holds
// (-1 = never written) and that bucket's digest.
type bucket struct {
	seq int64
	d   *Digest
}

// WindowSnapshot is one window's summary for stats endpoints. Sum is the
// windowed total in seconds (the _sum sample of the /metrics histogram).
type WindowSnapshot struct {
	Count              uint64
	Sum                float64
	P50, P90, P99, Max time.Duration
}

// NewWindow returns an empty window.
func NewWindow(o WindowOptions) *Window {
	if o.Width <= 0 {
		o.Width = DefaultWindowWidth
	}
	if o.Clock == nil {
		o.Clock = SystemClock{}
	}
	w := &Window{
		clock:       o.Clock,
		width:       o.Width,
		bucketWidth: o.Width / windowBuckets,
		// One extra slot beyond windowBuckets, so a full-width read still has
		// a distinct slot for every covered bucket while the current
		// (partial) bucket is being written.
		slots: make([]bucket, windowBuckets+1),
	}
	if w.bucketWidth <= 0 {
		w.bucketWidth = time.Nanosecond
	}
	for i := range w.slots {
		w.slots[i] = bucket{seq: -1, d: NewDigest()}
	}
	return w
}

// Width reports the full sliding span.
func (w *Window) Width() time.Duration { return w.width }

// seqAt maps a wall time to its absolute bucket number.
func (w *Window) seqAt(t time.Time) int64 {
	return t.UnixNano() / int64(w.bucketWidth)
}

// Record adds one sample (in seconds) to the current bucket.
func (w *Window) Record(v float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	seq := w.seqAt(w.clock.Now())
	s := &w.slots[mod(seq, len(w.slots))]
	if s.seq != seq {
		s.seq = seq
		s.d.Reset()
	}
	s.d.Add(v)
}

// merged combines the buckets covering the trailing `over` span (clamped to
// the window width; ≤0 means the full width) into one digest. Caller holds
// no lock.
func (w *Window) merged(over time.Duration) *Digest {
	if over <= 0 || over > w.width {
		over = w.width
	}
	n := int64((over + w.bucketWidth - 1) / w.bucketWidth)
	out := NewDigest()
	w.mu.Lock()
	defer w.mu.Unlock()
	seq := w.seqAt(w.clock.Now())
	for i := range w.slots {
		s := &w.slots[i]
		if s.seq < 0 || s.seq > seq || s.seq <= seq-n {
			continue
		}
		out.Merge(s.d)
	}
	return out
}

// Merged returns one digest of every sample inside the full window. The
// caller owns it, so all reads of it see the same samples however many
// arrive meanwhile.
func (w *Window) Merged() *Digest { return w.merged(0) }

// Snapshot summarizes the full window for stats endpoints.
func (w *Window) Snapshot() WindowSnapshot {
	d := w.merged(0)
	return WindowSnapshot{
		Count: d.Count(),
		Sum:   d.Sum(),
		P50:   secondsToDuration(d.Quantile(0.5)),
		P90:   secondsToDuration(d.Quantile(0.9)),
		P99:   secondsToDuration(d.Quantile(0.99)),
		Max:   secondsToDuration(d.Max()),
	}
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// mod is the non-negative remainder, so bucket numbers before the epoch
// (tests running a ManualClock near time zero) still map into the ring.
func mod(x int64, n int) int {
	m := x % int64(n)
	if m < 0 {
		m += int64(n)
	}
	return int(m)
}
