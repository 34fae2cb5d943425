package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/graph"
)

// fixedSession opens a session over n users joined in a path, with the
// given rows and preferences p(u,c) = 1/(1+u+c), every τ 0.3.
func fixedSession(t *testing.T, m, k, cap int, rows [][]int) *DynamicSession {
	t.Helper()
	n := len(rows)
	g := graph.New(n)
	for u := 1; u < n; u++ {
		g.AddMutualEdge(u-1, u)
	}
	in := NewInstance(g, m, k, 0.5)
	for u := 0; u < n; u++ {
		for c := 0; c < m; c++ {
			in.SetPref(u, c, 1/float64(1+u+c))
		}
		for _, v := range g.Out(u) {
			for c := 0; c < m; c++ {
				must(in.SetTau(u, v, c, 0.3))
			}
		}
	}
	conf := NewConfiguration(n, k)
	for u, row := range rows {
		copy(conf.Assign[u], row)
	}
	ds, err := NewDynamicSession(in, conf, cap)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestJoinPastCapacityFails: once every unit is at the size cap, a join has
// no complete row, so it fails and leaves the session bit-for-bit as it was
// — it used to admit the shopper with an all-unassigned row, a state
// RestoreDynamicSession then refused.
func TestJoinPastCapacityFails(t *testing.T) {
	ds := fixedSession(t, 3, 2, 1, [][]int{{0, 1}, {1, 2}})
	pref := []float64{0.5, 0.4, 0.3}
	nu, err := ds.Join(pref, FriendTies{0: {Out: pref, In: pref}})
	if err != nil {
		t.Fatalf("first join (one free unit per slot): %v", err)
	}
	if err := ds.Config().Validate(ds.Instance()); err != nil {
		t.Fatalf("after first join: %v", err)
	}
	if got := ds.Config().MaxSubgroupSize(); got > 1 {
		t.Fatalf("first join broke the cap: subgroup of %d", got)
	}
	value, fp, conf := ds.Value(), Fingerprint(ds.Instance()), ds.Config().Clone()
	if _, err := ds.Join(pref, FriendTies{nu: {Out: pref}}); err == nil || !strings.Contains(err.Error(), "size cap") {
		t.Fatalf("join past capacity: err = %v, want a size-cap error", err)
	}
	if math.Float64bits(ds.Value()) != math.Float64bits(value) || Fingerprint(ds.Instance()) != fp {
		t.Fatal("failed join changed the value or the instance")
	}
	if ds.Instance().NumUsers() != 3 || len(ds.ActiveUsers()) != 3 {
		t.Fatalf("failed join left %d users, %d active", ds.Instance().NumUsers(), len(ds.ActiveUsers()))
	}
	for u, row := range conf.Assign {
		for s, it := range row {
			if ds.Config().Assign[u][s] != it {
				t.Fatalf("failed join moved user %d slot %d", u, s)
			}
		}
	}
	if _, err := RestoreDynamicSession(ds.Instance(), ds.Config(), 1, ds.ActiveUsers()); err != nil {
		t.Fatalf("restore after a refused join: %v", err)
	}
}

// TestJoinDeadEndTakesFallback: the slot-by-slot fill can take, at an early
// slot, the only item still free at a later one. Here slot 1 has only item 0
// below the cap and the newcomer prefers item 0, so the fill would put it at
// slot 0 and dead-end; the join must fall back to the complete in-cap row.
func TestJoinDeadEndTakesFallback(t *testing.T) {
	ds := fixedSession(t, 3, 2, 2, [][]int{{0, 1}, {2, 1}, {1, 2}, {1, 2}})
	pref := []float64{0.9, 0.1, 0.2}
	nu, err := ds.Join(pref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Config().Validate(ds.Instance()); err != nil {
		t.Fatalf("newcomer row %v: %v", ds.Config().Assign[nu], err)
	}
	if got := ds.Config().MaxSubgroupSize(); got > 2 {
		t.Fatalf("subgroup of %d > cap 2", got)
	}
	if got := ds.Config().Assign[nu]; got[0] != 2 || got[1] != 0 {
		t.Fatalf("newcomer row %v, want the only in-cap row [2 0]", got)
	}
	if drift := ds.Resync(); drift > 1e-12 {
		t.Fatalf("value drifted by %g", drift)
	}
}

// TestHugeUtilitiesRejected: a join whose utilities overflow λ·(τ+τ) used to
// spin MaxAssignment forever under the session lock. Utilities above
// MaxUtility are now refused at the event boundary, and a join at the bound
// stays finite.
func TestHugeUtilitiesRejected(t *testing.T) {
	ds := fixedSession(t, 3, 2, 0, [][]int{{0, 1}, {1, 2}})
	huge := []float64{1e308, 1e308, 1e308}
	done := make(chan error, 1)
	go func() {
		_, err := ds.Join(huge, FriendTies{0: {Out: huge, In: huge}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "exceeds the utility bound") {
			t.Fatalf("join with 1e308 utilities: err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join with 1e308 utilities did not return")
	}
	if _, err := ds.UpdatePreference(1, huge); err == nil {
		t.Fatal("updatePreference with 1e308 accepted")
	}
	top := []float64{MaxUtility, MaxUtility, MaxUtility}
	if _, err := ds.Join(top, FriendTies{0: {Out: top, In: top}, 1: {In: top}}); err != nil {
		t.Fatalf("join at the bound: %v", err)
	}
	ds.Rebalance(2)
	v := ds.Value()
	if !isFinite(v) {
		t.Fatalf("value %v at the utility bound", v)
	}
	if drift := ds.Resync(); drift > 1e-9*math.Max(1, math.Abs(v)) {
		t.Fatalf("drift %g at value %g", drift, v)
	}
}

// TestMaxAssignmentNonFinite: a gain that is not finite, or a finite span
// too wide for the costs, yields the no-assignment result instead of a hang.
func TestMaxAssignmentNonFinite(t *testing.T) {
	for _, gain := range [][][]float64{
		{{1, math.NaN(), 2}, {0, 1, 2}},
		{{1, math.Inf(1), 2}, {0, 1, 2}},
		{{1, 2, 3}, {math.Inf(-1), 1, 2}},
		{{math.MaxFloat64, 0}, {-math.MaxFloat64, 0}},
	} {
		done := make(chan []int, 1)
		go func() {
			row, _ := MaxAssignment(gain)
			done <- row
		}()
		select {
		case row := <-done:
			if row != nil {
				t.Fatalf("MaxAssignment(%v) = %v, want nil", gain, row)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("MaxAssignment(%v) did not return", gain)
		}
	}
}

// TestValidateUtilityBound: Instance.Validate enforces MaxUtility on
// preferences and τ, and its τ message names the edge from the map key.
func TestValidateUtilityBound(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(2, 1)
	in := NewInstance(g, 2, 1, 0.5)
	in.SetPref(1, 1, MaxUtility)
	must(in.SetTau(2, 1, 0, MaxUtility))
	if err := in.Validate(); err != nil {
		t.Fatalf("utilities at the bound rejected: %v", err)
	}
	in.SetPref(1, 1, 2*MaxUtility)
	if err := in.Validate(); err == nil || !strings.Contains(err.Error(), "p(1,1)") {
		t.Fatalf("preference above the bound: err = %v", err)
	}
	in.SetPref(1, 1, 0)
	must(in.SetTau(2, 1, 1, math.Inf(1)))
	if err := in.Validate(); err == nil || !strings.Contains(err.Error(), "τ(2,1,1)") {
		t.Fatalf("infinite τ: err = %v, want it to name τ(2,1,1)", err)
	}
}

// TestEventsDoNotAllocate: on a session that has settled, preference
// updates and rebalances reuse the session's assignment workspace.
func TestEventsDoNotAllocate(t *testing.T) {
	_, ds := solvedSession(t, 61, 12, 10, 3, 0)
	pref := make([]float64, 10)
	for c := range pref {
		pref[c] = float64(c) / 10
	}
	ds.Rebalance(2)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := ds.UpdatePreference(3, pref); err != nil {
			t.Fatal(err)
		}
		ds.Rebalance(1)
	}); allocs != 0 {
		t.Fatalf("updatePreference + rebalance: %v allocs per event pair, want 0", allocs)
	}
}
