package session

import (
	"bytes"
	"math"
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/graph"
)

// fuzzEventsBody is the wire shape of a POST /v1/sessions/{id}/events body.
// internal/server imports this package, so its request type is mirrored
// here rather than imported.
type fuzzEventsBody struct {
	Events []Event `json:"events"`
}

// maxFuzzEvents bounds the events one input applies, so every input runs in
// bounded time however long its array.
const maxFuzzEvents = 64

// fuzzSession opens the session FuzzSessionApply drives: two friends over
// m=3 items and k=2 slots, started from their personalized rows.
func fuzzSession(t *testing.T, cap int) *core.DynamicSession {
	g := graph.New(2)
	g.AddMutualEdge(0, 1)
	in := core.NewInstance(g, 3, 2, 0.5)
	for c := 0; c < 3; c++ {
		in.SetPref(0, c, float64(c+1)/4)
		in.SetPref(1, c, float64(3-c)/4)
		if err := in.SetTau(0, 1, c, 0.3); err != nil {
			t.Fatal(err)
		}
		if err := in.SetTau(1, 0, c, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := core.NewDynamicSession(in, core.PersonalizedConfig(in), cap)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// FuzzSessionApply feeds arbitrary bytes through the session-event trust
// boundary: strict JSON decode of an events body, then Apply, event by
// event, to a small session uncapped and under size cap 2. An event Apply
// refuses must leave the session exactly as it was. After every applied
// event the evaluated value must be finite, the configuration complete,
// duplicate-free and within the cap, and the incremental value within
// 1e-9 of a full recompute, relative to the larger of the values before
// and after the event: each event folds its deltas into the accumulator,
// so its rounding scales with the largest value it passed through. No
// input may panic or hang.
func FuzzSessionApply(f *testing.F) {
	for _, seed := range []string{
		// Overflowing utilities: λ·(τ+τ) = +Inf used to spin MaxAssignment.
		`{"events":[{"type":"join","pref":[1e308,1e308,1e308],"friends":[{"id":0,"out":[1e308,1e308,1e308],"in":[1e308,1e308,1e308]}]}]}`,
		// Every event kind.
		`{"events":[{"type":"join","pref":[0.5,0.2,0.9],"friends":[{"id":0,"out":[0.1,0.2,0.3],"in":[0.3,0.2,0.1]},{"id":1}]},` +
			`{"type":"updatePreference","user":2,"pref":[0.1,0.1,0.7]},{"type":"rebalance","maxPasses":2},{"type":"leave","user":0}]}`,
		// A tie to a departed user.
		`{"events":[{"type":"leave","user":1},{"type":"join","pref":[1,0,0],"friends":[{"id":1,"out":[1,1,1]}]}]}`,
		// A short tie vector.
		`{"events":[{"type":"join","pref":[1,0,0],"friends":[{"id":0,"out":[1]}]}]}`,
		// Duplicate friends.
		`{"events":[{"type":"join","pref":[1,0,0],"friends":[{"id":0},{"id":0}]}]}`,
		// A pass budget above MaxRebalancePasses.
		`{"events":[{"type":"rebalance","maxPasses":17}]}`,
		// Joins past capacity under the cap.
		`{"events":[{"type":"join","pref":[1,0,0]},{"type":"join","pref":[1,0,0]},{"type":"join","pref":[1,0,0]},` +
			`{"type":"join","pref":[1,0,0]},{"type":"join","pref":[1,0,0]},{"type":"join","pref":[1,0,0]}]}`,
		// Utilities at and just above the bound.
		`{"events":[{"type":"join","pref":[1e150,0,1e150],"friends":[{"id":1,"in":[1e150,1e150,0]}]},{"type":"leave","user":2},` +
			`{"type":"updatePreference","user":0,"pref":[1.0000000000000002e150,0,0]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req fuzzEventsBody
		if err := core.DecodeStrict(bytes.NewReader(body), &req); err != nil {
			return
		}
		events := req.Events[:min(len(req.Events), maxFuzzEvents)]
		for _, cap := range []int{0, 2} {
			ds := fuzzSession(t, cap)
			for i, ev := range events {
				before, conf, fp := ds.Value(), ds.Config().Clone(), core.Fingerprint(ds.Instance())
				if _, err := Apply(ds, ev); err != nil {
					if math.Float64bits(ds.Value()) != math.Float64bits(before) ||
						core.Fingerprint(ds.Instance()) != fp || !sameRows(ds.Config(), conf) {
						t.Fatalf("cap %d event %d (%s): refused event (%v) changed the session", cap, i, ev.Type, err)
					}
					continue
				}
				value := ds.Value()
				if full := core.Evaluate(ds.Instance(), ds.Config()).Weighted(); math.IsNaN(full) || math.IsInf(full, 0) {
					t.Fatalf("cap %d event %d (%s): evaluated value %v", cap, i, ev.Type, full)
				}
				if err := ds.Config().Validate(ds.Instance()); err != nil {
					t.Fatalf("cap %d event %d (%s): %v", cap, i, ev.Type, err)
				}
				if cap > 0 && ds.Config().MaxSubgroupSize() > cap {
					t.Fatalf("cap %d event %d (%s): subgroup of %d", cap, i, ev.Type, ds.Config().MaxSubgroupSize())
				}
				tol := 1e-9 * math.Max(1, math.Max(math.Abs(before), math.Abs(value)))
				if drift := ds.Resync(); !(drift <= tol) {
					t.Fatalf("cap %d event %d (%s): drift %g at value %g", cap, i, ev.Type, drift, value)
				}
			}
		}
	})
}

// sameRows reports whether two configurations assign every unit alike.
func sameRows(a, b *core.Configuration) bool {
	if len(a.Assign) != len(b.Assign) {
		return false
	}
	for u, row := range a.Assign {
		for s, it := range row {
			if b.Assign[u][s] != it {
				return false
			}
		}
	}
	return true
}
