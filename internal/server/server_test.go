package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/telemetry"
)

// testInstance builds the canonical multi-component workload used across the
// engine tests, and its JSON interchange form.
func testInstance(t *testing.T, seed uint64) (*core.Instance, []byte) {
	t.Helper()
	in := datasets.MultiGroup(seed, 2, 4, 10, 2, 0.5)
	data, err := core.MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, data
}

// gateSolver blocks every Solve on a gate channel and counts executions, so
// tests can deterministically hold requests in flight.
type gateSolver struct {
	gate  <-chan struct{}
	runs  *atomic.Int64
	inner core.Solver
}

func (g *gateSolver) Name() string { return "gate" }

func (g *gateSolver) Solve(ctx context.Context, in *core.Instance) (*core.Solution, error) {
	g.runs.Add(1)
	<-g.gate
	return g.inner.Solve(ctx, in)
}

// newGatedServer builds a 1-worker engine whose solver parks on the returned
// gate, wrapped in a server with the given options.
func newGatedServer(t *testing.T, opts Options) (*Server, chan struct{}, *atomic.Int64) {
	t.Helper()
	gate := make(chan struct{})
	runs := &atomic.Int64{}
	eng := engine.New(engine.Options{
		Workers:   1,
		CacheSize: -1,
		NewSolver: func() core.Solver {
			return &gateSolver{gate: gate, runs: runs, inner: &core.AVGDSolver{}}
		},
	})
	t.Cleanup(eng.Close)
	opts.Engine = eng
	opts.Sessions = testManager(t, eng, session.Options{})
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, gate, runs
}

// testManager builds the session manager a test server runs over, closed at
// test cleanup — before eng, whose Close the caller registered first.
func testManager(tb testing.TB, eng *engine.Engine, opts session.Options) *session.Manager {
	tb.Helper()
	opts.Engine = eng
	mgr, err := session.NewManager(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(mgr.Close)
	return mgr
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

func decodeInto(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
}

// TestSolveRoundTripMatchesSolveAVGD: the served configuration is bit-for-bit
// the one a direct library call computes, report included.
func TestSolveRoundTripMatchesSolveAVGD(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for seed := uint64(1); seed <= 5; seed++ {
		in, body := testInstance(t, seed)
		want, _, err := core.SolveAVGD(in, core.AVGDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.URL+"/v1/solve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, data)
		}
		var sr SolveResponse
		decodeInto(t, data, &sr)
		if sr.Slots != in.K || len(sr.Assignment) != in.NumUsers() {
			t.Fatalf("seed %d: wrong shape %dx%d", seed, len(sr.Assignment), sr.Slots)
		}
		for u := range want.Assign {
			for s := range want.Assign[u] {
				if sr.Assignment[u][s] != want.Assign[u][s] {
					t.Fatalf("seed %d: served assignment diverges from SolveAVGD at (%d,%d)", seed, u, s)
				}
			}
		}
		rep := core.Evaluate(in, want)
		if math.Abs(sr.Weighted-rep.Weighted()) > 1e-12 || math.Abs(sr.Scaled-rep.Scaled()) > 1e-12 {
			t.Errorf("seed %d: served report (%g, %g) != library report (%g, %g)",
				seed, sr.Weighted, sr.Scaled, rep.Weighted(), rep.Scaled())
		}
		if sr.Algorithm != "AVG-D" {
			t.Errorf("seed %d: algorithm = %q", seed, sr.Algorithm)
		}
	}
}

// TestBatchRoundTrip: positional results, each equal to a direct solve.
func TestBatchRoundTrip(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ijs []core.InstanceJSON
	var ins []*core.Instance
	for seed := uint64(10); seed < 13; seed++ {
		in, body := testInstance(t, seed)
		var ij core.InstanceJSON
		decodeInto(t, body, &ij)
		ijs = append(ijs, ij)
		ins = append(ins, in)
	}
	body, err := json.Marshal(ijs)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/solve/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	decodeInto(t, data, &br)
	if len(br.Results) != len(ins) {
		t.Fatalf("got %d results, want %d", len(br.Results), len(ins))
	}
	for i, in := range ins {
		want, _, err := core.SolveAVGD(in, core.AVGDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for u := range want.Assign {
			for s := range want.Assign[u] {
				if br.Results[i].Assignment[u][s] != want.Assign[u][s] {
					t.Fatalf("result %d diverges from SolveAVGD at (%d,%d)", i, u, s)
				}
			}
		}
	}
}

// TestBatchCountsOneEngineBatch: a /v1/solve/batch request counts as one
// engine batch in /v1/stats.
func TestBatchCountsOneEngineBatch(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ijs []core.InstanceJSON
	for seed := uint64(20); seed < 22; seed++ {
		_, body := testInstance(t, seed)
		var ij core.InstanceJSON
		decodeInto(t, body, &ij)
		ijs = append(ijs, ij)
	}
	body, err := json.Marshal(ijs)
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/solve/batch", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if st := srv.StatsSnapshot().Engine; st.Batches != 1 || st.Solves != 2 {
		t.Fatalf("engine stats after one 2-item batch: batches=%d solves=%d, want 1 and 2", st.Batches, st.Solves)
	}
}

// TestStrictDecodeRejectsUnknownField: the serving path inherits the strict
// ingestion discipline — a misspelled field is a 400, not a silent drop.
func TestStrictDecodeRejectsUnknownField(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	typo := []byte(`{
	  "users": 2, "items": 3, "slots": 2, "lambda": 0.5,
	  "preference": [[1, 0.5, 0], [0.9, 0.1, 0.2]]
	}`)
	resp, data := postJSON(t, ts.URL+"/v1/solve", typo)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`misspelled "preference": status %d, want 400`, resp.StatusCode)
	}
	var er ErrorResponse
	decodeInto(t, data, &er)
	if !strings.Contains(er.Error, "preference") {
		t.Errorf("error %q does not name the unknown field", er.Error)
	}

	// An edge naming an undeclared user is refused, not silently dropped.
	outside := []byte(`{
	  "users": 2, "items": 3, "slots": 2, "lambda": 0.5,
	  "edges": [{"from": 0, "to": 2}],
	  "preferences": [[1, 0.5, 0], [0.9, 0.1, 0.2]]
	}`)
	resp, data = postJSON(t, ts.URL+"/v1/solve", outside)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("edge to user 2 of 2: status %d, want 400: %s", resp.StatusCode, data)
	}

	// Trailing garbage after the document is rejected too.
	_, good := testInstance(t, 1)
	resp, _ = postJSON(t, ts.URL+"/v1/solve", append(append([]byte{}, good...), []byte(`{"users":1}`)...))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing garbage: status %d, want 400", resp.StatusCode)
	}

	// A batch containing one malformed instance fails whole with the index.
	var ij core.InstanceJSON
	decodeInto(t, good, &ij)
	bad := ij
	bad.Slots = bad.Items + 1 // k > m
	body, err := json.Marshal([]core.InstanceJSON{ij, bad})
	if err != nil {
		t.Fatal(err)
	}
	resp, data = postJSON(t, ts.URL+"/v1/solve/batch", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid batch member: status %d, want 400", resp.StatusCode)
	}
	decodeInto(t, data, &er)
	if !strings.Contains(er.Error, "instance 1") {
		t.Errorf("batch error %q does not locate the bad instance", er.Error)
	}
}

// TestAdmissionControlSheds429: with MaxInFlight=1 and the single slot held
// by a gated solve, the next (distinct) request is shed immediately with 429
// and Retry-After: 1; the held request still completes.
func TestAdmissionControlSheds429(t *testing.T) {
	srv, gate, runs := newGatedServer(t, Options{MaxInFlight: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, bodyA := testInstance(t, 1)
	_, bodyB := testInstance(t, 2)

	type res struct {
		status int
		data   []byte
	}
	aDone := make(chan res, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/solve", bodyA)
		aDone <- res{resp.StatusCode, data}
	}()
	waitFor(t, "request A to reach the solver", func() bool { return runs.Load() == 1 })

	resp, _ := postJSON(t, ts.URL+"/v1/solve", bodyB)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	close(gate)
	if a := <-aDone; a.status != http.StatusOK {
		t.Fatalf("held request finished with %d: %s", a.status, a.data)
	}
	if st := srv.StatsSnapshot(); st.Server.Shed != 1 || st.Server.Admitted != 1 {
		t.Errorf("admission stats = %+v, want shed=1 admitted=1", st.Server)
	}
}

// TestDeadlineMapsTo504: a request whose `timeout` budget expires while the
// worker is busy maps to 504 Gateway Timeout.
func TestDeadlineMapsTo504(t *testing.T) {
	srv, gate, runs := newGatedServer(t, Options{MaxInFlight: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, bodyA := testInstance(t, 1)
	_, bodyB := testInstance(t, 2)
	aDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", bodyA)
		aDone <- resp.StatusCode
	}()
	waitFor(t, "request A to occupy the worker", func() bool { return runs.Load() == 1 })

	// B cannot reach the single worker before its 30ms budget expires.
	resp, data := postJSON(t, ts.URL+"/v1/solve?timeout=30ms", bodyB)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired solve: status %d, want 504: %s", resp.StatusCode, data)
	}
	close(gate)
	if a := <-aDone; a != http.StatusOK {
		t.Fatalf("held request finished with %d", a)
	}
	if st := srv.StatsSnapshot(); st.Server.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Server.Timeouts)
	}

	// Malformed timeout values are a 400, not a silent default.
	resp, _ = postJSON(t, ts.URL+"/v1/solve?timeout=fast", bodyB)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus timeout: status %d, want 400", resp.StatusCode)
	}
}

// TestClientCancelMapsTo499: a request abandoned by its client reports the
// 499 convention (and lands in the clientClosed counter, since the client
// itself will never see the status).
func TestClientCancelMapsTo499(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, body := testInstance(t, 3)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled request: status %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	if st := srv.StatsSnapshot(); st.Server.ClientClosed != 1 {
		t.Errorf("ClientClosed = %d, want 1", st.Server.ClientClosed)
	}
}

// TestNewRequiresEngineAndSessions: the server builds neither its engine nor
// its session manager, so New refuses to run without either.
func TestNewRequiresEngineAndSessions(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	if _, err := New(Options{Sessions: testManager(t, eng, session.Options{})}); err == nil {
		t.Error("New without an Engine succeeded")
	}
	if _, err := New(Options{Engine: eng}); err == nil {
		t.Error("New without Sessions succeeded")
	}
}

// TestClosedEngineMapsTo503: a solve and a batch on a closed engine both
// answer 503, not 500: the engine is shut down, nothing inside it failed.
func TestClosedEngineMapsTo503(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	eng.Close()

	_, body := testInstance(t, 4)
	var ij core.InstanceJSON
	decodeInto(t, body, &ij)
	batch, err := json.Marshal([]core.InstanceJSON{ij})
	if err != nil {
		t.Fatal(err)
	}
	for route, req := range map[string][]byte{"/v1/solve": body, "/v1/solve/batch": batch} {
		if resp, data := postJSON(t, ts.URL+route, req); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s on a closed engine: status %d, want 503: %s", route, resp.StatusCode, data)
		}
	}
}

// TestCoalescingCollapsesConcurrentDuplicates is the acceptance property: N
// concurrent identical requests trigger exactly one solver execution and all
// N receive the correct configuration. The cache is disabled, so the
// collapse is pure coalescing.
func TestCoalescingCollapsesConcurrentDuplicates(t *testing.T) {
	const n = 5
	srv, gate, runs := newGatedServer(t, Options{MaxInFlight: 2 * n})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	in, body := testInstance(t, 7)
	want, _, err := core.SolveAVGD(in, core.AVGDOptions{})
	if err != nil {
		t.Fatal(err)
	}

	type res struct {
		status int
		data   []byte
	}
	results := make(chan res, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/solve", body)
			results <- res{resp.StatusCode, data}
		}()
	}
	waitFor(t, "leader to reach the solver", func() bool { return runs.Load() == 1 })
	waitFor(t, "followers to coalesce", func() bool {
		return srv.StatsSnapshot().Coalesce.Joins == n-1
	})
	close(gate)
	wg.Wait()
	close(results)

	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.data)
		}
		var sr SolveResponse
		decodeInto(t, r.data, &sr)
		for u := range want.Assign {
			for s := range want.Assign[u] {
				if sr.Assignment[u][s] != want.Assign[u][s] {
					t.Fatalf("coalesced result diverges from SolveAVGD at (%d,%d)", u, s)
				}
			}
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("solver executed %d times for %d identical requests, want 1", got, n)
	}
	st := srv.StatsSnapshot()
	if st.Coalesce.Leads != 1 || st.Coalesce.Joins != n-1 {
		t.Errorf("coalesce stats = %+v, want 1 lead / %d joins", st.Coalesce, n-1)
	}
	if st.Engine.Solved != 1 {
		t.Errorf("engine Solved = %d, want 1", st.Engine.Solved)
	}
}

// TestGracefulShutdownDrains: Shutdown refuses new work with 503 but the
// in-flight solve runs to completion before Shutdown returns — only then is
// it safe to close the engine.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, gate, runs := newGatedServer(t, Options{MaxInFlight: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, bodyA := testInstance(t, 1)
	aDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", bodyA)
		aDone <- resp.StatusCode
	}()
	waitFor(t, "request A to reach the solver", func() bool { return runs.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// New work is refused while draining: healthz turns 503...
	waitFor(t, "healthz to report draining", func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	_, bodyB := testInstance(t, 2)
	respB, _ := postJSON(t, ts.URL+"/v1/solve", bodyB)
	if respB.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("solve while draining: status %d, want 503", respB.StatusCode)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight solve finished: %v", err)
	default:
	}

	// ...but the in-flight solve completes and unblocks the drain.
	close(gate)
	if a := <-aDone; a != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain", a)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestEvaluateEndpoint round-trips a configuration through /v1/evaluate and
// checks the report against the library.
func TestEvaluateEndpoint(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	in, body := testInstance(t, 4)
	conf, _, err := core.SolveAVGD(in, core.AVGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ij core.InstanceJSON
	decodeInto(t, body, &ij)
	req, err := json.Marshal(EvaluateRequest{
		Instance:      ij,
		Configuration: core.ConfigurationJSON{Slots: conf.K, Assignment: conf.Assign},
		DTel:          0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var er EvaluateResponse
	decodeInto(t, data, &er)
	want := core.EvaluateST(in, conf, 0.5)
	if math.Abs(er.Weighted-want.Weighted()) > 1e-12 || math.Abs(er.Preference-want.Preference) > 1e-12 {
		t.Errorf("served report (%g, %g) != library report (%g, %g)",
			er.Weighted, er.Preference, want.Weighted(), want.Preference)
	}

	// An assignment that breaks no-duplication is a 400.
	badConf := conf.Clone()
	badConf.Assign[0][1] = badConf.Assign[0][0]
	req, err = json.Marshal(EvaluateRequest{
		Instance:      ij,
		Configuration: core.ConfigurationJSON{Slots: badConf.K, Assignment: badConf.Assign},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate-item configuration: status %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodyMapsTo413: a body over the 8 MiB cap is a 413, not a 400
// — clients must learn to shrink the request, not "fix" well-formed JSON.
func TestOversizedBodyMapsTo413(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed instance behind enough leading whitespace (valid JSON) to
	// end one byte past 8 MiB, served in-process so the body is not copied
	// through a socket.
	_, inst := testInstance(t, 1)
	body := append(bytes.Repeat([]byte(" "), 8<<20+1-len(inst)), inst...)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "exceeds 8388608 bytes") {
		t.Errorf("413 body %q does not name the 8 MiB cap", rec.Body)
	}
}

// TestStatsAndLimits covers the remaining surface: stats sanity, the engine
// counter identity over the wire, method guards, batch size cap and the
// non-finite rejection at the HTTP boundary.
func TestStatsAndLimits(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{}), MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, body := testInstance(t, 5)
	for i := 0; i < 3; i++ { // 1 miss + 2 cache hits
		if resp, data := postJSON(t, ts.URL+"/v1/solve", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st StatsResponse
	decodeInto(t, data, &st)
	e := st.Engine
	if e.Solves != e.CacheHits+e.Solved+e.Canceled+e.Errors {
		t.Errorf("served counter identity broken: %+v", e)
	}
	if e.Solves != 3 || e.CacheHits != 2 {
		t.Errorf("engine stats = %+v, want 3 solves / 2 hits", e)
	}
	if !st.Coalesce.Enabled || st.Coalesce.Leads != 3 {
		t.Errorf("coalesce stats = %+v, want enabled with 3 leads", st.Coalesce)
	}

	// healthz happy path.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var hr HealthResponse
	decodeInto(t, data, &hr)
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.Workers != 2 {
		t.Errorf("healthz = %d %+v", resp.StatusCode, hr)
	}

	// Method guards.
	if resp, err := http.Get(ts.URL + "/v1/solve"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/solve: status %d, want 405", resp.StatusCode)
		}
	}

	// Batch above the cap is refused with 413.
	var ij core.InstanceJSON
	decodeInto(t, body, &ij)
	big, err := json.Marshal([]core.InstanceJSON{ij, ij, ij})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/solve/batch", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}

	// The validation boundary answers over the wire: out-of-range λ is a 400.
	badLambda := `{"users":1,"items":2,"slots":1,"lambda":2,"preferences":[[1,0]]}`
	if resp, _ := postJSON(t, ts.URL+"/v1/solve", []byte(badLambda)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("λ=2: status %d, want 400", resp.StatusCode)
	}
}

// TestRoutesAdmitAndTimeOnce covers every route's registration. A wrong
// method gets the mux's 405, naming the route's method in Allow, and is
// neither admitted nor timed. Each admitted route lands exactly one sample
// in its latency series, whatever its status (DELETE in session_get, the
// series it is admitted under); the unadmitted routes land none.
func TestRoutesAdmitAndTimeOnce(t *testing.T) {
	tr := telemetry.NewTracker(telemetry.TrackerOptions{})
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{}), Telemetry: tr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	samples := func() map[string]uint64 {
		counts := map[string]uint64{}
		for name, sn := range tr.Snapshot() {
			counts[name] = sn.Count
		}
		return counts
	}

	for _, rt := range []struct{ method, path, wrong, series string }{
		{http.MethodPost, "/v1/solve", http.MethodGet, routeSolve},
		{http.MethodPost, "/v1/solve/batch", http.MethodGet, routeBatch},
		{http.MethodPost, "/v1/evaluate", http.MethodGet, routeEvaluate},
		{http.MethodPost, "/v1/sessions", http.MethodGet, routeSessionCreate},
		{http.MethodPost, "/v1/sessions/nope/events", http.MethodGet, routeSessionEvents},
		{http.MethodGet, "/v1/sessions/nope", http.MethodPut, routeSessionGet},
		{http.MethodDelete, "/v1/sessions/nope", http.MethodPost, routeSessionGet},
		{http.MethodGet, "/v1/algorithms", http.MethodPost, ""},
		{http.MethodGet, "/v1/stats", http.MethodPost, ""},
		{http.MethodGet, "/metrics", http.MethodPost, ""},
		{http.MethodGet, "/healthz", http.MethodPost, ""},
	} {
		t.Run(rt.method+" "+rt.path, func(t *testing.T) {
			var body []byte
			if rt.method == http.MethodPost {
				body = []byte(`{}`)
			}
			before, admitted := samples(), srv.StatsSnapshot().Server.Admitted
			resp, data := doJSON(t, rt.wrong, ts.URL+rt.path, body)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s: status %d, want 405: %s", rt.wrong, resp.StatusCode, data)
			}
			if allow := resp.Header.Get("Allow"); !strings.Contains(allow, rt.method) {
				t.Errorf("%s: Allow %q does not name %s", rt.wrong, allow, rt.method)
			}
			if got := samples(); !maps.Equal(got, before) || srv.StatsSnapshot().Server.Admitted != admitted {
				t.Fatalf("%s moved admission or latency: samples %v -> %v", rt.wrong, before, got)
			}

			doJSON(t, rt.method, ts.URL+rt.path, body)
			want, wantAdmitted := maps.Clone(before), admitted
			if rt.series != "" {
				want[rt.series]++
				wantAdmitted++
			}
			if got := samples(); !maps.Equal(got, want) {
				t.Errorf("latency samples %v, want %v", got, want)
			}
			if got := srv.StatsSnapshot().Server.Admitted; got != wantAdmitted {
				t.Errorf("admitted = %d, want %d", got, wantAdmitted)
			}
		})
	}
}
