package telemetry

import (
	"testing"
	"time"
)

// testWindow builds a 12s window (12 buckets of 1s) on a manual clock aligned
// to a bucket boundary, so tests reason in whole 1s buckets.
func testWindow() (*Window, *ManualClock) {
	clk := NewManualClock(time.Unix(1000, 0))
	w := NewWindow(WindowOptions{Width: 12 * time.Second, Clock: clk})
	return w, clk
}

func TestWindowRotation(t *testing.T) {
	w, clk := testWindow()
	if w.Merged().Count() != 0 || w.Merged().Quantile(0.5) != 0 {
		t.Fatal("fresh window must read empty")
	}
	w.Record(1)
	w.Record(1)
	w.Record(1)
	if w.Merged().Count() != 3 {
		t.Fatalf("Count = %d, want 3", w.Merged().Count())
	}

	clk.Advance(time.Second)
	w.Record(2)
	if w.Merged().Count() != 4 {
		t.Fatalf("Count after rotation = %d, want 4", w.Merged().Count())
	}
	// A one-bucket span sees only the current bucket.
	if got := w.merged(time.Second).Count(); got != 1 {
		t.Fatalf("merged(1s).Count() = %d, want 1", got)
	}
	if got := w.merged(2 * time.Second).Count(); got != 4 {
		t.Fatalf("merged(2s).Count() = %d, want 4", got)
	}

	// Advance until the first bucket ages out of the full span: samples at
	// bucket b are visible while now is within buckets (b, b+12].
	clk.Advance(11 * time.Second) // first bucket now 12 buckets old
	if got := w.Merged().Count(); got != 1 {
		t.Fatalf("Count after first bucket expired = %d, want 1", got)
	}
	clk.Advance(time.Second)
	if got := w.Merged().Count(); got != 0 {
		t.Fatalf("Count after all buckets expired = %d, want 0", got)
	}
}

func TestWindowQuantilesAcrossBuckets(t *testing.T) {
	w, clk := testWindow()
	for i := 0; i < 50; i++ {
		w.Record(0.1)
	}
	clk.Advance(time.Second)
	for i := 0; i < 50; i++ {
		w.Record(0.9)
	}
	// Both buckets in view: the median sits between the two plateaus and the
	// p99 on the high one.
	if p99 := w.Merged().Quantile(0.99); p99 < 0.85 {
		t.Fatalf("p99 over both buckets = %g, want ≈ 0.9", p99)
	}
	if p10 := w.Merged().Quantile(0.10); p10 > 0.15 {
		t.Fatalf("p10 over both buckets = %g, want ≈ 0.1", p10)
	}
	// After the low bucket expires, the whole distribution is the plateau.
	clk.Advance(11 * time.Second)
	if p50 := w.Merged().Quantile(0.5); p50 != 0.9 {
		t.Fatalf("p50 after low bucket expired = %g, want 0.9", p50)
	}
}

// TestWindowStaleSlotReuse pins the lazy-rotation invariant: a write one
// full ring-length later lands in the same slot, which must forget its old
// samples rather than merge epochs.
func TestWindowStaleSlotReuse(t *testing.T) {
	w, clk := testWindow()
	w.Record(0.1)
	// 13 buckets = ring length: same slot index, different bucket number.
	clk.Advance(13 * time.Second)
	w.Record(0.9)
	if got := w.Merged().Count(); got != 1 {
		t.Fatalf("Count = %d, want 1 (stale slot must reset on reuse)", got)
	}
	if p50 := w.Merged().Quantile(0.5); p50 != 0.9 {
		t.Fatalf("p50 = %g, want 0.9 (old epoch leaked)", p50)
	}
}

func TestWindowBackwardClockJump(t *testing.T) {
	w, clk := testWindow()
	w.Record(0.5)
	w.Record(0.5)
	// Jump 5s backwards: the old samples are now stamped in the future and
	// reads must not see them — history is discarded, not invented.
	clk.Advance(-5 * time.Second)
	if got := w.Merged().Count(); got != 0 {
		t.Fatalf("Count after backward jump = %d, want 0 (future buckets ignored)", got)
	}
	// Writes at the earlier time work normally.
	w.Record(0.7)
	if got := w.Merged().Count(); got != 1 {
		t.Fatalf("Count after post-jump write = %d, want 1", got)
	}
	if p50 := w.Merged().Quantile(0.5); p50 != 0.7 {
		t.Fatalf("p50 after post-jump write = %g, want 0.7", p50)
	}
	// Walking forward again re-enters the epoch the pre-jump samples were
	// written in; the slot-number check must still reset them on write.
	clk.Advance(5 * time.Second)
	w.Record(0.9)
	if got := w.Merged().Count(); got != 4 {
		// Pre-jump samples in not-yet-reused slots become visible again once
		// the clock re-passes them (discard happens on WRITE, not on read),
		// so the view is 2 pre-jump + 0.7 + 0.9.
		t.Fatalf("Count after returning forward = %d, want 4", got)
	}
}

func TestWindowForwardClockJump(t *testing.T) {
	w, clk := testWindow()
	for i := 0; i < 10; i++ {
		w.Record(0.5)
	}
	// A jump past the full width expires everything at once.
	clk.Advance(time.Hour)
	if got := w.Merged().Count(); got != 0 {
		t.Fatalf("Count after forward jump = %d, want 0", got)
	}
	if p50 := w.Merged().Quantile(0.5); p50 != 0 {
		t.Fatalf("p50 after forward jump = %g, want 0 (empty)", p50)
	}
}

func TestWindowDefaults(t *testing.T) {
	w := NewWindow(WindowOptions{})
	if w.Width() != DefaultWindowWidth {
		t.Fatalf("default width = %v, want %v", w.Width(), DefaultWindowWidth)
	}
	w.Record(1) // system clock path must not panic
	if w.Merged().Count() != 1 {
		t.Fatal("system-clock window must record")
	}
}

func TestWindowSnapshot(t *testing.T) {
	w, _ := testWindow()
	for i := 1; i <= 100; i++ {
		w.Record(float64(i) / 1000) // 1ms..100ms
	}
	snap := w.Snapshot()
	if snap.Count != 100 {
		t.Fatalf("snapshot Count = %d, want 100", snap.Count)
	}
	if snap.Max != 100*time.Millisecond {
		t.Fatalf("snapshot Max = %v, want 100ms", snap.Max)
	}
	if snap.P50 < 40*time.Millisecond || snap.P50 > 60*time.Millisecond {
		t.Fatalf("snapshot P50 = %v, want ≈ 50ms", snap.P50)
	}
	if snap.P99 < 95*time.Millisecond || snap.P99 > 100*time.Millisecond {
		t.Fatalf("snapshot P99 = %v, want ≈ 99ms", snap.P99)
	}
}
