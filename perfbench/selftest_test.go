package main

import (
	"encoding/json"
	"net/http"
	"slices"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/server"
)

// The SHA-256 of every workload's request bytes at seed 1. A change to
// internal/datasets, internal/utility, the session event generator or the
// interchange schema that changes what a workload sends fails here instead
// of silently moving the benchmark's figures. Update a pin only together
// with a note that the workload changed.
var pinnedDigests = map[string]string{
	"cold-solve":      "0392f08e41e5af760f64a7fe0deec7c0157d22e6d1a6ea45eb520ae6ec2a0adb",
	"hot-solve":       "45722f49385343a492a10584805b84f9dbdce7732aaea2de62c87170deea2c04",
	"durable-session": "a3ebe20346299537b8a4cfd885183dd43ce706be1889927fd60cc05b9c019c73",
}

func TestInputDigests(t *testing.T) {
	for _, name := range workloadNames {
		if testing.Short() && name == "cold-solve" {
			continue
		}
		in, err := generate(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if in.digest != pinnedDigests[name] {
			t.Errorf("%s: inputs sha256 %s, pinned %s", name, in.digest, pinnedDigests[name])
		}
		again, err := generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if again.digest != in.digest {
			t.Errorf("%s: generation is not repeatable", name)
		}
	}
}

// TestCheckerRejectsChangedAssignment solves a hot-solve group on the
// in-process stack, checks that the checker accepts the response, then
// changes one assignment entry and expects the checker to reject it.
func TestCheckerRejectsChangedAssignment(t *testing.T) {
	in, err := generate("hot-solve", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newStack(false, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	body := in.timed[0]
	status, out, _, err := s.target.send(http.MethodPost, "/v1/solve", body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("solve: status %d: %v", status, err)
	}
	inst, err := instanceOf(body)
	if err != nil {
		t.Fatal(err)
	}
	good, err := checkSolve(inst, out, nil)
	if err != nil {
		t.Fatalf("checker rejects a correct response: %v", err)
	}
	if _, err := checkSolve(inst, out, good); err != nil {
		t.Fatalf("checker rejects a response equal to its reference: %v", err)
	}

	// Show user 0 at slot 0 an item it is not shown anywhere else: the
	// configuration stays valid, so only the objective checks can catch it.
	var changed server.SolveResponse
	if err := json.Unmarshal(out, &changed); err != nil {
		t.Fatal(err)
	}
	row := changed.Assignment[0]
	for item := 0; item < inst.NumItems; item++ {
		if !slices.Contains(row, item) {
			row[0] = item
			break
		}
	}
	bad, err := json.Marshal(changed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSolve(inst, bad, nil); err == nil {
		t.Fatal("checker accepts a response with a changed assignment entry")
	}
	if _, err := checkSolve(inst, bad, good); err == nil {
		t.Fatal("hot check accepts a response that differs from its setup solve")
	}

	// A duplicated item in a user's row must fail validation.
	changed.Assignment[0][1] = changed.Assignment[0][0]
	dup, _ := json.Marshal(changed)
	if _, err := checkSolve(inst, dup, nil); err == nil {
		t.Fatal("checker accepts an assignment that shows one item twice to a user")
	}
}

// TestKeptWindowsFollowSteal checks that the timings come from the
// windows with the least host steal, whatever their op counts: the kept
// quarter here is the one window of four with the fewest ops.
func TestKeptWindowsFollowSteal(t *testing.T) {
	ops := func(n int, lat time.Duration) []op {
		out := make([]op, n)
		for i := range out {
			out[i] = op{lat: lat, status: http.StatusOK}
		}
		return out
	}
	ws := []window{
		{ops: ops(90, 10*time.Millisecond), width: time.Second, ticks: 180, steal: 0.30},
		{ops: ops(40, 20*time.Millisecond), width: time.Second, ticks: 160, steal: 0.01},
		{ops: ops(95, 10*time.Millisecond), width: time.Second, ticks: 190, steal: 0.20},
		{ops: ops(99, 10*time.Millisecond), width: time.Second, ticks: 198, steal: 0.05},
	}
	res := newResult()
	setTimings(res, ws)
	want := map[string]float64{"p50_ms": 20, "p90_ms": 20, "throughput": 40, "cpu_ms_per_op": 40}
	for name, v := range want {
		if got := res.Metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v (the lowest-steal window's)", name, got, v)
		}
	}
}
