package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/telemetry"
)

// sloObjective parses the shared e2e objective: p50 solve < 100ms over 60s
// on a 60s/12-bucket tracker (5s buckets, 5s fast window, 50% budget).
func sloObjective(t *testing.T) (telemetry.Objective, *telemetry.Tracker, *telemetry.ManualClock) {
	t.Helper()
	obj, err := telemetry.ParseObjective("p50 solve < 100ms over 60s")
	if err != nil {
		t.Fatal(err)
	}
	clk := telemetry.NewManualClock(time.Unix(50000, 0))
	tr := telemetry.NewTracker(telemetry.TrackerOptions{Clock: clk, Width: time.Minute})
	return obj, tr, clk
}

// burnSolve injects n over-threshold samples into the solve window.
func burnSolve(tr *telemetry.Tracker, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		tr.Record("solve", d)
	}
}

// TestSLODegradeShedRecover drives the full feedback loop over httptest with
// zero sleeps: every state change is an injected sample plus a manual-clock
// advance, observed through real requests.
//
//	breach → degrade (ip rerouted to AVG-D, degraded:true)
//	breach persists past escalate-after → shed (effective cap halves)
//	samples age out → degrade → normal, one dwelled rung at a time
func TestSLODegradeShedRecover(t *testing.T) {
	obj, tr, clk := sloObjective(t)
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	srv, err := New(Options{
		Engine:      eng,
		Sessions:    testManager(t, eng, session.Options{}),
		MaxInFlight: 4,
		Telemetry:   tr,
		SLOs:        []telemetry.Objective{obj},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stats := func() StatsResponse {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var st StatsResponse
		decodeInto(t, data, &st)
		return st
	}

	_, body := testInstance(t, 1)
	ipBody := append([]byte(`{"algo":"ip",`), body[1:]...)

	// Healthy: an ip request runs the IP solver, undegraded.
	resp, data := postJSON(t, ts.URL+"/v1/solve", ipBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ip solve: status %d: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	decodeInto(t, data, &sr)
	if sr.Degraded || sr.Algorithm != "IP" {
		t.Fatalf("healthy ip solve: algorithm %q degraded %v, want IP undegraded", sr.Algorithm, sr.Degraded)
	}

	// Burn the budget: bad samples dominate the window, the next request's
	// admission check re-evaluates and degrades, and the ip request lands on
	// the fallback, marked — though its body comes from the decode memo.
	burnSolve(tr, 10, 200*time.Millisecond)
	clk.Advance(250 * time.Millisecond)
	resp, data = postJSON(t, ts.URL+"/v1/solve", ipBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded ip solve: status %d: %s", resp.StatusCode, data)
	}
	decodeInto(t, data, &sr)
	if !sr.Degraded || sr.Algorithm != "AVG-D" {
		t.Fatalf("burning ip solve: algorithm %q degraded %v, want AVG-D degraded", sr.Algorithm, sr.Degraded)
	}
	st := stats()
	if st.Memo.Hits != 1 {
		t.Fatalf("memo = %+v, want the degraded ip solve answered from the memo", st.Memo)
	}
	if st.SLO == nil || st.SLO.Level != "degrade" {
		t.Fatalf("slo = %+v, want level degrade", st.SLO)
	}
	if st.SLO.DegradedByAlgo["ip"] != 1 || st.SLO.DegradedTotal != 1 {
		t.Fatalf("degraded counters = %+v, want ip:1", st.SLO)
	}
	if len(st.SLO.Objectives) != 1 || st.SLO.Objectives[0].State != "breached" {
		t.Fatalf("objectives = %+v, want breached", st.SLO.Objectives)
	}
	if lat, ok := st.Latency["solve"]; !ok || lat.Count == 0 {
		t.Fatalf("latency = %+v, want a solve series", st.Latency)
	}

	// Degrading did not help for escalate-after: shed. The effective cap
	// halves (4 → 2) while the configured cap stands.
	clk.Advance(11 * time.Second)
	burnSolve(tr, 10, 200*time.Millisecond)
	st = stats()
	if st.SLO.Level != "shed" {
		t.Fatalf("level after escalate-after = %q, want shed", st.SLO.Level)
	}
	if st.SLO.EffectiveMaxInFlight != 2 || st.Server.MaxInFlight != 4 {
		t.Fatalf("caps = %d/%d, want effective 2 of 4", st.SLO.EffectiveMaxInFlight, st.Server.MaxInFlight)
	}

	// The bad samples age out of the slow window: de-escalation walks back
	// one dwelled rung at a time.
	clk.Advance(2 * time.Minute)
	if st = stats(); st.SLO.Level != "degrade" {
		t.Fatalf("level after recovery = %q, want degrade (one rung)", st.SLO.Level)
	}
	clk.Advance(6 * time.Second)
	if st = stats(); st.SLO.Level != "normal" {
		t.Fatalf("level after dwell = %q, want normal", st.SLO.Level)
	}
	if st.SLO.Transitions != 4 {
		t.Fatalf("transitions = %d, want exactly 4 (no flapping)", st.SLO.Transitions)
	}

	// Recovered: ip requests run IP again.
	resp, data = postJSON(t, ts.URL+"/v1/solve", ipBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered ip solve: status %d: %s", resp.StatusCode, data)
	}
	var recovered SolveResponse
	decodeInto(t, data, &recovered)
	if recovered.Degraded || recovered.Algorithm != "IP" {
		t.Fatalf("recovered ip solve: algorithm %q degraded %v, want IP undegraded", recovered.Algorithm, recovered.Degraded)
	}

	// The new families are scrapable.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawBytes, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw := string(rawBytes)
	checkExposition(t, raw)
	for _, want := range []string{
		"svgicd_slo_burn_rate{slo=\"p50 solve < 100ms over 1m0s\",window=\"fast\"}",
		"svgicd_degraded_requests_by_algo_total{algo=\"ip\"} 1",
		"svgicd_latency_seconds_bucket{series=\"solve\"",
		"svgicd_latency_quantile_seconds{series=\"solve\",quantile=\"0.99\"}",
		"svgicd_effective_max_in_flight 4",
		"svgicd_slo_transitions_total 4",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSLOAdaptiveShed429 pins the shed rung's teeth: with the controller
// shedding, requests beyond the tightened cap are refused with 429 and
// Retry-After: 1 — while requests within the tightened cap still run.
func TestSLOAdaptiveShed429(t *testing.T) {
	obj, tr, clk := sloObjective(t)
	srv, gate, _ := newGatedServer(t, Options{
		MaxInFlight: 4,
		Telemetry:   tr,
		SLOs:        []telemetry.Objective{obj},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Drive the ladder to shed: breach, then persist past escalate-after.
	burnSolve(tr, 10, 3*time.Second)
	clk.Advance(250 * time.Millisecond)
	_ = srv.StatsSnapshot() // evaluate: degrade
	clk.Advance(11 * time.Second)
	burnSolve(tr, 10, 3*time.Second)
	st := srv.StatsSnapshot() // evaluate: shed
	if st.SLO.Level != "shed" || st.SLO.EffectiveMaxInFlight != 2 {
		t.Fatalf("slo = level %q cap %d, want shed with cap 2", st.SLO.Level, st.SLO.EffectiveMaxInFlight)
	}

	// Two requests fit the tightened cap and park on the gate.
	_, bodyA := testInstance(t, 1)
	_, bodyB := testInstance(t, 2)
	done := make(chan int, 2)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", bodyA)
		done <- resp.StatusCode
	}()
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", bodyB)
		done <- resp.StatusCode
	}()
	waitFor(t, "two requests to hold admission tokens", func() bool {
		return srv.StatsSnapshot().Server.InFlight == 2
	})

	// The third is beyond the effective cap: adaptive 429.
	_, bodyC := testInstance(t, 3)
	resp, data := postJSON(t, ts.URL+"/v1/solve", bodyC)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("beyond effective cap: status %d: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(string(data), "latency objectives") {
		t.Errorf("shed body %q does not name the cause", data)
	}
	st = srv.StatsSnapshot()
	if st.SLO.AdaptiveShed != 1 || st.Server.Shed != 1 {
		t.Fatalf("shed counters = adaptive %d total %d, want 1/1", st.SLO.AdaptiveShed, st.Server.Shed)
	}

	// The parked requests still complete: degrade/shed never cancels
	// admitted work.
	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("parked request finished with %d", code)
		}
	}
}

// TestSLONoAdaptiveAdmission: measurement without feedback — burn rates are
// reported, but nothing degrades and the cap never tightens.
func TestSLONoAdaptiveAdmission(t *testing.T) {
	obj, tr, clk := sloObjective(t)
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	srv, err := New(Options{
		Engine:              eng,
		Sessions:            testManager(t, eng, session.Options{}),
		MaxInFlight:         4,
		Telemetry:           tr,
		SLOs:                []telemetry.Objective{obj},
		NoAdaptiveAdmission: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	burnSolve(tr, 10, 200*time.Millisecond)
	clk.Advance(250 * time.Millisecond)

	_, body := testInstance(t, 1)
	ipBody := append([]byte(`{"algo":"ip",`), body[1:]...)
	resp, data := postJSON(t, ts.URL+"/v1/solve", ipBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	decodeInto(t, data, &sr)
	if sr.Degraded || sr.Algorithm != "IP" {
		t.Fatalf("feedback disabled but algorithm %q degraded %v", sr.Algorithm, sr.Degraded)
	}
	st := srv.StatsSnapshot()
	if st.SLO == nil || st.SLO.AdaptiveAdmission {
		t.Fatalf("slo = %+v, want reported with adaptiveAdmission false", st.SLO)
	}
	if st.SLO.EffectiveMaxInFlight != 4 {
		t.Fatalf("effective cap = %d, want the configured 4", st.SLO.EffectiveMaxInFlight)
	}
	if len(st.SLO.Objectives) != 1 || st.SLO.Objectives[0].SlowBurn < 1 {
		t.Fatalf("objectives = %+v, want a reported burn ≥ 1", st.SLO.Objectives)
	}
}

// TestRejectedBatchCountsNoDegrade: while the ladder degrades, a batch whose
// first item names ip is rejected for its second item, and nothing in it
// counts as degraded, because nothing in it was served.
func TestRejectedBatchCountsNoDegrade(t *testing.T) {
	obj, tr, clk := sloObjective(t)
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{}), Telemetry: tr, SLOs: []telemetry.Objective{obj}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	burnSolve(tr, 10, 200*time.Millisecond)
	clk.Advance(250 * time.Millisecond)
	if st := srv.StatsSnapshot(); st.SLO.Level != "degrade" {
		t.Fatalf("level %q, want degrade", st.SLO.Level)
	}
	_, body := testInstance(t, 1)
	batch := append(append([]byte(`[`), withAlgo(t, body, "ip", "")...), `,{"users":0}]`...)
	resp, data := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with a bad second item: status %d, want 400: %s", resp.StatusCode, data)
	}
	if st := srv.StatsSnapshot().SLO; st.DegradedTotal != 0 || len(st.DegradedByAlgo) != 0 {
		t.Fatalf("rejected batch counted as degraded: total %d, by algo %v", st.DegradedTotal, st.DegradedByAlgo)
	}
}
