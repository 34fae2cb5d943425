package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/registry"
	"github.com/svgic/svgic/internal/session"
)

// newSessionServer builds an engine + manager + server stack for the
// live-session tests and returns the manager for white-box pokes (manual
// repair cycles).
func newSessionServer(t *testing.T, mopts session.Options, sopts Options) (*httptest.Server, *session.Manager) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	mopts.Engine = eng
	mgr, err := session.NewManager(mopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	sopts.Engine = eng
	sopts.Sessions = mgr
	srv, err := New(sopts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, mgr
}

func doJSON(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSessionTraceReplayMatchesOffline is the end-to-end acceptance check:
// create a session over HTTP, stream a recorded join/leave/update trace at
// it in batches, and the final GET must report a configuration whose value
// matches an offline core.DynamicSession replay of the same trace — bit for
// bit — with the version counting exactly the applied events.
func TestSessionTraceReplayMatchesOffline(t *testing.T) {
	ts, _ := newSessionServer(t, session.Options{}, Options{})
	in, raw := testInstance(t, 81)
	trace := session.NewTrace(in, 0, 36, 4242)

	var create CreateSessionRequest
	decodeInto(t, raw, &create.InstanceJSON)
	create.Algo = "avgd"
	body, err := json.Marshal(create)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	var created CreateSessionResponse
	decodeInto(t, data, &created)
	if created.ID == "" || created.Version != 0 {
		t.Fatalf("create response: %+v", created)
	}

	version := created.Version
	for at := 0; at < len(trace.Events); at += 5 {
		end := min(at+5, len(trace.Events))
		body, err := json.Marshal(SessionEventsRequest{Events: trace.Events[at:end]})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/events", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events[%d:%d]: status %d: %s", at, end, resp.StatusCode, data)
		}
		var er SessionEventsResponse
		decodeInto(t, data, &er)
		if want := version + uint64(end-at); er.Version != want {
			t.Fatalf("events[%d:%d]: version %d, want %d", at, end, er.Version, want)
		}
		if len(er.Results) != end-at {
			t.Fatalf("events[%d:%d]: %d results", at, end, len(er.Results))
		}
		version = er.Version
	}

	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d: %s", resp.StatusCode, data)
	}
	var got SessionResponse
	decodeInto(t, data, &got)

	// Offline replay: same algorithm (explicitly "avgd", as the request
	// named), same starting configuration, same event-application semantics.
	solver, err := registry.New("avgd", nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.NewDynamicSession(in, sol.Config, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := session.Replay(ds, trace.Events); err != nil {
		t.Fatalf("offline replay stopped at %d: %v", n, err)
	}
	if got.Value != ds.Value() {
		t.Fatalf("served value %v != offline replay value %v", got.Value, ds.Value())
	}
	if got.Version != uint64(len(trace.Events)) {
		t.Fatalf("version %d, want %d", got.Version, len(trace.Events))
	}
	offConf := ds.Config()
	if len(got.Assignment) != len(offConf.Assign) {
		t.Fatalf("assignment covers %d users, offline %d", len(got.Assignment), len(offConf.Assign))
	}
	for u := range offConf.Assign {
		for s, it := range offConf.Assign[u] {
			if got.Assignment[u][s] != it {
				t.Fatalf("assignment[%d][%d] = %d, offline %d", u, s, got.Assignment[u][s], it)
			}
		}
	}
	if len(got.Active) != len(ds.ActiveUsers()) {
		t.Fatalf("active %d != offline %d", len(got.Active), len(ds.ActiveUsers()))
	}
	if got.Metrics.EventsApplied != uint64(len(trace.Events)) {
		t.Fatalf("metrics events = %d, want %d", got.Metrics.EventsApplied, len(trace.Events))
	}
}

// TestSessionDriftRepairOverHTTP: degrade a live session, run a repair
// cycle, and the swap shows up in the session response and /v1/stats.
func TestSessionDriftRepairOverHTTP(t *testing.T) {
	ts, mgr := newSessionServer(t, session.Options{RepairMargin: -1}, Options{})
	in, raw := testInstance(t, 82)

	var create CreateSessionRequest
	decodeInto(t, raw, &create.InstanceJSON)
	body, err := json.Marshal(create)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	var created CreateSessionResponse
	decodeInto(t, data, &created)

	// Drift the session away from optimal: flood it with churn that the
	// incremental path absorbs greedily, then let repair re-solve. To make
	// the swap deterministic, degrade through the API: a stream of joins
	// whose greedy admission leaves value on the table is not guaranteed, so
	// instead apply updatePreference events that shuffle everyone's
	// preferences — the incremental best responses land in a local optimum.
	events := make([]session.Event, 0, in.NumUsers())
	for u := 0; u < in.NumUsers(); u++ {
		pref := make([]float64, in.NumItems)
		for c := range pref {
			pref[c] = float64((c+u*3)%in.NumItems) / float64(in.NumItems)
		}
		events = append(events, session.Event{Type: session.EventUpdatePreference, User: u, Pref: pref})
	}
	body, err = json.Marshal(SessionEventsRequest{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/events", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d: %s", resp.StatusCode, data)
	}
	var afterEvents SessionEventsResponse
	decodeInto(t, data, &afterEvents)

	mgr.RepairAll(context.Background())

	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d: %s", resp.StatusCode, data)
	}
	var got SessionResponse
	decodeInto(t, data, &got)
	cycles := got.Metrics.RepairSwaps + got.Metrics.RepairKeeps
	if cycles != 1 {
		t.Fatalf("repair cycles = %d (swaps=%d keeps=%d), want 1",
			cycles, got.Metrics.RepairSwaps, got.Metrics.RepairKeeps)
	}
	if got.Metrics.RepairSwaps == 1 {
		if got.Value < afterEvents.Value {
			t.Fatalf("swap decreased value: %v -> %v", afterEvents.Value, got.Value)
		}
		if got.Version != afterEvents.Version+1 {
			t.Fatalf("swap version %d, want %d", got.Version, afterEvents.Version+1)
		}
	}

	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var st StatsResponse
	decodeInto(t, data, &st)
	if !st.Sessions.Enabled || st.Sessions.Live != 1 || st.Sessions.Created != 1 {
		t.Fatalf("sessions stats: %+v", st.Sessions)
	}
	if st.Sessions.RepairRuns != 1 {
		t.Fatalf("stats repair runs = %d, want 1", st.Sessions.RepairRuns)
	}
	if st.Sessions.EventsApplied != uint64(len(events)) {
		t.Fatalf("stats events = %d, want %d", st.Sessions.EventsApplied, len(events))
	}
}

// TestSessionDriftRepairSwapsStuckSession forces the demonstrable swap
// using only the public API: a coordination-game store where the
// incremental join path provably lands in a local optimum a full re-solve
// beats.
//
// The store has one shopper (u0) and two items: A with preference 0.6, B
// with preference 0.5. The initial solve shows u0 item A. Then u1 joins
// with the same preferences and a strong mutual social tie on item B
// (τ = 1.0 each direction). The admission best response puts u1 on A too
// (0.5·0.6 alone beats 0.5·0.5 alone, and u0 is on A so there is no
// co-display gain on B to collect) and u0's reaction pass cannot move
// either — moving to B alone strictly loses. The session is stuck at
// weighted value 0.6 while the full re-solve co-displays B for a weighted
// value of 0.5·(0.5+0.5) + 0.5·(1.0+1.0) = 1.5. The drift-repair cycle must
// swap it in.
func TestSessionDriftRepairSwapsStuckSession(t *testing.T) {
	ts, mgr := newSessionServer(t, session.Options{}, Options{})

	create := []byte(`{
		"users": 1, "items": 2, "slots": 1, "lambda": 0.5,
		"preferences": [[0.6, 0.5]]
	}`)
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", create)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	var created CreateSessionResponse
	decodeInto(t, data, &created)

	join := []byte(`{"events": [{
		"type": "join",
		"pref": [0.6, 0.5],
		"friends": [{"id": 0, "out": [0, 1.0], "in": [0, 1.0]}]
	}]}`)
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/events", join)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d: %s", resp.StatusCode, data)
	}
	var joined SessionEventsResponse
	decodeInto(t, data, &joined)
	if joined.Value != 0.6 {
		t.Fatalf("incremental value = %v, want the stuck 0.6", joined.Value)
	}

	mgr.RepairAll(context.Background())

	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d", resp.StatusCode)
	}
	var repaired SessionResponse
	decodeInto(t, data, &repaired)
	if repaired.Metrics.RepairSwaps != 1 {
		t.Fatalf("repair swaps = %d, want 1 (value %v)", repaired.Metrics.RepairSwaps, repaired.Value)
	}
	if repaired.Value != 1.5 {
		t.Fatalf("repaired value = %v, want the re-solved 1.5", repaired.Value)
	}
	if repaired.Version != joined.Version+1 {
		t.Fatalf("swap version = %d, want %d", repaired.Version, joined.Version+1)
	}
	// Both shoppers co-display item B after the swap.
	for u, row := range repaired.Assignment {
		if len(row) != 1 || row[0] != 1 {
			t.Fatalf("shopper %d sees %v, want item 1 (B)", u, row)
		}
	}
}

// TestSessionEndpointErrors: the HTTP error contract of the session surface.
func TestSessionEndpointErrors(t *testing.T) {
	ts, _ := newSessionServer(t, session.Options{MaxSessions: 1}, Options{})
	_, raw := testInstance(t, 84)
	var create CreateSessionRequest
	decodeInto(t, raw, &create.InstanceJSON)
	body, err := json.Marshal(create)
	if err != nil {
		t.Fatal(err)
	}

	// Unknown id → 404 for GET, events and DELETE.
	for _, probe := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/v1/sessions/nope", nil},
		{http.MethodPost, "/v1/sessions/nope/events", mustJSON(t, SessionEventsRequest{Events: []session.Event{{Type: session.EventRebalance}}})},
		{http.MethodDelete, "/v1/sessions/nope", nil},
	} {
		resp, data := doJSON(t, probe.method, ts.URL+probe.path, probe.body)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d: %s", probe.method, probe.path, resp.StatusCode, data)
		}
	}

	// Create within the bound, then overflow → 429 with Retry-After.
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	var created CreateSessionResponse
	decodeInto(t, data, &created)
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow create: status %d: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("session-limit 429: Retry-After = %q, want \"1\"", ra)
	}

	// Bad event batches → 400; oversized batch → 413; unknown field → 400.
	bad := []struct {
		name string
		body string
		want int
	}{
		{"empty batch", `{"events": []}`, http.StatusBadRequest},
		{"unknown event type", `{"events": [{"type": "jump"}]}`, http.StatusBadRequest},
		{"unknown field", `{"events": [{"type": "rebalance", "passes": 3}]}`, http.StatusBadRequest},
		{"inactive user", `{"events": [{"type": "leave", "user": 999}]}`, http.StatusBadRequest},
		{"short join pref", `{"events": [{"type": "join", "pref": [1]}]}`, http.StatusBadRequest},
	}
	for _, tc := range bad {
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/events", []byte(tc.body))
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.want, data)
		}
	}
	big := SessionEventsRequest{}
	for i := 0; i < DefaultMaxBatch+1; i++ {
		big.Events = append(big.Events, session.Event{Type: session.EventRebalance, MaxPasses: 1})
	}
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/events", mustJSON(t, big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d: %s", resp.StatusCode, data)
	}

	// Partial batch failure → 400 naming how far it got; the prefix stays.
	partial := `{"events": [{"type": "leave", "user": 0}, {"type": "leave", "user": 0}]}`
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/events", []byte(partial))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial batch: status %d: %s", resp.StatusCode, data)
	}
	var er ErrorResponse
	decodeInto(t, data, &er)
	if !strings.Contains(er.Error, "1 of 2 events applied") {
		t.Fatalf("partial batch error lacks progress: %q", er.Error)
	}

	// Bad create payloads.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", []byte(`{"users": 1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid instance create: status %d: %s", resp.StatusCode, data)
	}

	// DELETE then GET → 404, and capacity is freed.
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after delete: status %d: %s", resp.StatusCode, data)
	}
}

// TestSessionCappedCreate: a capped session resolves a capped solver (the
// injected sizeCap param) and its initial configuration respects the bound;
// cap-incapable or cap-conflicting selections are 400s, because their
// initial solve and every drift repair would silently violate the bound.
func TestSessionCappedCreate(t *testing.T) {
	ts, mgr := newSessionServer(t, session.Options{}, Options{})
	_, raw := testInstance(t, 85)
	var create CreateSessionRequest
	decodeInto(t, raw, &create.InstanceJSON)
	create.SizeCap = 2

	for _, tc := range []struct{ name, patch string }{
		{"cap-incapable algo", `"algo": "per"`},
		{"conflicting params cap", `"algo": "avgd", "params": {"sizeCap": 3}`},
	} {
		create.Algo = ""
		create.Params = nil
		body := mustJSON(t, create)
		body = append([]byte(`{`+tc.patch+`,`), body[1:]...)
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, data)
		}
	}

	body, err := json.Marshal(create)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("capped create: status %d: %s", resp.StatusCode, data)
	}
	var created CreateSessionResponse
	decodeInto(t, data, &created)
	if created.SizeCap != 2 {
		t.Fatalf("sizeCap = %d, want 2", created.SizeCap)
	}
	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d", resp.StatusCode)
	}
	var got SessionResponse
	decodeInto(t, data, &got)
	conf := &core.Configuration{Assign: got.Assignment, K: got.Slots}
	if maxSub := conf.MaxSubgroupSize(); maxSub > 2 {
		t.Fatalf("capped session served subgroup of %d > 2", maxSub)
	}
	_ = mgr
}

// TestSessionCreateJoinsInFlightSolve: a session create solves through the
// same engine path as /v1/solve, so a create for an instance already being
// solved joins that flight and the solver runs once for both.
func TestSessionCreateJoinsInFlightSolve(t *testing.T) {
	srv, gate, runs := newGatedServer(t, Options{MaxInFlight: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Released on every path: a failed wait must not leave the solve parked
	// on the gate, where ts.Close would wait for it forever.
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	_, body := testInstance(t, 8)
	solved := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", body)
		solved <- resp.StatusCode
	}()
	waitFor(t, "the solve to reach the solver", func() bool { return runs.Load() == 1 })

	var create CreateSessionRequest
	decodeInto(t, body, &create.InstanceJSON)
	created := make(chan int, 1)
	go func() {
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", mustJSON(t, create))
		created <- resp.StatusCode
	}()
	waitFor(t, "the create to join the solve", func() bool { return srv.StatsSnapshot().Coalesce.Joins == 1 })
	release()
	if got := <-solved; got != http.StatusOK {
		t.Errorf("solve: status %d, want 200", got)
	}
	if got := <-created; got != http.StatusCreated {
		t.Errorf("create: status %d, want 201", got)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("solver ran %d times for a solve and a create of one instance, want 1", got)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
