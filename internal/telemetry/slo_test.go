package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestParseObjective(t *testing.T) {
	o, err := ParseObjective("p99 solve < 250ms over 5m")
	if err != nil {
		t.Fatal(err)
	}
	want := Objective{Series: "solve", Quantile: 0.99, Threshold: 250 * time.Millisecond, Window: 5 * time.Minute}
	if o != want {
		t.Fatalf("got %+v, want %+v", o, want)
	}
	if math.Abs(o.Budget()-0.01) > 1e-12 {
		t.Fatalf("Budget = %g, want 0.01", o.Budget())
	}
	if o.FastWindow() != 25*time.Second {
		t.Fatalf("FastWindow = %v, want 25s", o.FastWindow())
	}
	if o.String() != "p99 solve < 250ms over 5m0s" {
		t.Fatalf("String = %q", o.String())
	}

	// Fractional quantiles and per-algorithm series parse too.
	o, err = ParseObjective("p99.9 algo:IP < 1s over 10m")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.Quantile-0.999) > 1e-12 || o.Series != "algo:IP" {
		t.Fatalf("got %+v", o)
	}
}

func TestParseObjectiveRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"p99 solve < 250ms",              // no window
		"p99 solve > 250ms over 5m",      // wrong comparator
		"p99 solve < 250ms within 5m",    // wrong keyword
		"99 solve < 250ms over 5m",       // missing p
		"pXX solve < 250ms over 5m",      // unparseable percentile
		"p0 solve < 250ms over 5m",       // quantile at 0
		"p100 solve < 250ms over 5m",     // quantile at 1
		"pNaN solve < 1ms over 1s",       // NaN quantile: never burns, /v1/stats cannot encode it
		"p99 solve < banana over 5m",     // unparseable threshold
		"p99 solve < -250ms over 5m",     // negative threshold
		"p99 solve < 250ms over -5m",     // negative window
		"p99 solve < 250ms over 5ms",     // window too small for a fast window
		"p99 solve more words < 1s over", // field count
	} {
		if _, err := ParseObjective(bad); err == nil {
			t.Errorf("ParseObjective(%q) accepted, want error", bad)
		}
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("p99 solve < 250ms over 5m, p50 session_create < 100ms over 1m,")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objectives, want 2", len(objs))
	}
	if objs[1].Series != "session_create" || objs[1].Quantile != 0.5 {
		t.Fatalf("second objective = %+v", objs[1])
	}
	if _, err := ParseObjectives("p99 solve < 250ms over 5m, nonsense"); err == nil {
		t.Fatal("malformed item must fail the whole list")
	}
}

func TestTrackerBasics(t *testing.T) {
	clk := NewManualClock(time.Unix(1000, 0))
	tr := NewTracker(TrackerOptions{Clock: clk, Width: 12 * time.Second, Buckets: 12})
	if tr.Window("solve") != nil {
		t.Fatal("unseen series must have no window")
	}
	tr.Record("solve", 40*time.Millisecond)
	tr.Record("solve", 60*time.Millisecond)
	tr.Record("repair", 10*time.Millisecond)
	if p50 := tr.Snapshot()["solve"].P50; p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Fatalf("solve p50 = %v, want within [40ms, 60ms]", p50)
	}
	names := tr.Names()
	if len(names) != 2 || names[0] != "repair" || names[1] != "solve" {
		t.Fatalf("Names = %v", names)
	}
	snap := tr.Snapshot()
	if snap["solve"].Count != 2 || snap["repair"].Count != 1 {
		t.Fatalf("Snapshot = %+v", snap)
	}
	// Samples age out with the clock; empty series drop out of the snapshot.
	clk.Advance(time.Minute)
	if len(tr.Snapshot()) != 0 {
		t.Fatal("expired series must drop out of the snapshot")
	}
}

func TestTrackerEnsureWidens(t *testing.T) {
	clk := NewManualClock(time.Unix(1000, 0))
	tr := NewTracker(TrackerOptions{Clock: clk, Width: 12 * time.Second, Buckets: 12})
	tr.Ensure("solve", time.Minute)
	if w := tr.Window("solve"); w == nil || w.Width() != time.Minute {
		t.Fatalf("Ensure must widen past the tracker default, got %v", w.Width())
	}
	// Ensure never narrows, and the default width is the floor.
	tr.Ensure("solve", time.Second)
	if w := tr.Window("solve"); w.Width() != time.Minute {
		t.Fatalf("Ensure narrowed the window to %v", w.Width())
	}
	tr.Ensure("batch", time.Millisecond)
	if w := tr.Window("batch"); w.Width() != 12*time.Second {
		t.Fatalf("Ensure below the default must use the default, got %v", w.Width())
	}
}

// FuzzParseObjectives feeds arbitrary text through the -slo trust boundary.
// Every objective of an accepted list must be one the controller can
// evaluate (0 < q < 1, a positive threshold, a window of at least 12ms so
// the fast window is 1ms or more), and its String form must parse back to
// the same series, threshold and window, with the quantile within 1e-12.
func FuzzParseObjectives(f *testing.F) {
	for _, seed := range []string{
		"p99 solve < 250ms over 5m",
		"p99.9 algo:IP < 1s over 10m",
		"p99 solve < 250ms over 5m, p50 repair < 50ms over 1m, p95 algo:IP < 1s over 5m",
		"p99 solve < 250ms over 5m, p50 session_create < 100ms over 1m,",
		"p99 solve < 1ms over 2s",
		"pNaN solve < 1ms over 1s",
		"",
		",",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		objs, err := ParseObjectives(s)
		if err != nil {
			return
		}
		for _, o := range objs {
			if !(o.Quantile > 0 && o.Quantile < 1) || o.Threshold <= 0 || o.Window < FastWindowDivisor*time.Millisecond {
				t.Fatalf("ParseObjectives(%q) accepted %+v", s, o)
			}
			back, err := ParseObjective(o.String())
			if err != nil {
				t.Fatalf("%q: String %q does not parse back: %v", s, o.String(), err)
			}
			if back.Series != o.Series || back.Threshold != o.Threshold || back.Window != o.Window ||
				!(math.Abs(back.Quantile-o.Quantile) <= 1e-12) {
				t.Fatalf("%q: %+v round-trips through %q to %+v", s, o, o.String(), back)
			}
		}
	})
}
