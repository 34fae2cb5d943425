package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/registry"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/utility"
)

// newAlgoServer builds a default-engine server for the per-request algorithm
// tests.
func newAlgoServer(t *testing.T) (*Server, *engine.Engine, *httptest.Server) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, eng, ts
}

// withAlgo wraps a marshalled instance with an "algo" (and optional
// "params") selection, exercising the real wire shape rather than the Go
// structs.
func withAlgo(t *testing.T, instance []byte, algo string, params string) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(instance, &m); err != nil {
		t.Fatal(err)
	}
	if algo != "" {
		m["algo"] = algo
	}
	if params != "" {
		m["params"] = json.RawMessage(params)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameAssignment(a [][]int, b *core.Configuration) bool {
	for u := range b.Assign {
		for s := range b.Assign[u] {
			if a[u][s] != b.Assign[u][s] {
				return false
			}
		}
	}
	return true
}

// TestSolveAlgoSelectionDoesNotAlias is the acceptance property of the
// solver-registry redesign: "algo":"avgd" and "algo":"per" on the SAME
// instance return independently cached, non-aliased results — repeated
// requests are answered from the cache (keyed on fingerprint + solver) and
// each algorithm keeps returning its own configuration.
func TestSolveAlgoSelectionDoesNotAlias(t *testing.T) {
	srv, eng, ts := newAlgoServer(t)
	in, body := testInstance(t, 31)

	wantAVGD, _, err := core.SolveAVGD(in, core.AVGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantPER := core.PersonalizedConfig(in)

	check := func(algo string, wantName string, want *core.Configuration) SolveResponse {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/solve", withAlgo(t, body, algo, ""))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", algo, resp.StatusCode, data)
		}
		var sr SolveResponse
		decodeInto(t, data, &sr)
		if sr.Algorithm != wantName {
			t.Fatalf("%s: algorithm = %q, want %q", algo, sr.Algorithm, wantName)
		}
		if !sameAssignment(sr.Assignment, want) {
			t.Fatalf("%s: served assignment diverges from the library result", algo)
		}
		return sr
	}

	// First round fills two distinct cache entries for one fingerprint.
	check("avgd", "AVG-D", wantAVGD)
	check("per", "PER", wantPER)
	if st := eng.Stats(); st.CacheHits != 0 || st.Solved != 2 {
		t.Fatalf("after first round: %+v, want 2 solves and no hits", st)
	}
	// Second round: both served from cache, still non-aliased.
	check("avgd", "AVG-D", wantAVGD)
	check("per", "PER", wantPER)
	st := eng.Stats()
	if st.CacheHits != 2 || st.Solved != 2 {
		t.Fatalf("after second round: %+v, want 2 hits over 2 solves", st)
	}
	// Per-algorithm counters split the traffic and keep the identity.
	for _, name := range []string{"AVG-D", "PER"} {
		a, ok := st.PerAlgorithm[name]
		if !ok {
			t.Fatalf("no per-algorithm counters for %s: %+v", name, st.PerAlgorithm)
		}
		if a.Solves != 2 || a.CacheHits != 1 || a.Solved != 1 {
			t.Errorf("%s counters = %+v, want 2 solves = 1 hit + 1 solved", name, a)
		}
	}
	// The per-algorithm split shows up over the wire too.
	snap := srv.StatsSnapshot()
	if got := snap.Engine.PerAlgorithm["PER"].Solves; got != 2 {
		t.Errorf("wire per-algo PER solves = %d, want 2", got)
	}
}

// TestSolveAlgoParams: "params" parameterizes the chosen algorithm (and the
// default algorithm when "algo" is absent), with the same strictness as the
// registry — unknown names and bad values are a 400 naming the problem.
func TestSolveAlgoParams(t *testing.T) {
	_, _, ts := newAlgoServer(t)
	in, body := testInstance(t, 32)

	// avg with an explicit seed must equal the library run with that seed.
	want, _, err := core.SolveAVG(in, core.AVGOptions{Seed: 5, Repeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The engine decomposes (AVG is component-safe), so compare against the
	// equivalent per-component library merge.
	subs, origs := core.ComponentDecompose(in)
	if len(subs) > 1 {
		parts := make([]*core.Configuration, len(subs))
		for i, sub := range subs {
			if parts[i], _, err = core.SolveAVG(sub, core.AVGOptions{Seed: 5, Repeats: 3}); err != nil {
				t.Fatal(err)
			}
		}
		want = core.MergeConfigurations(in.NumUsers(), in.K, parts, origs)
	}
	resp, data := postJSON(t, ts.URL+"/v1/solve", withAlgo(t, body, "avg", `{"seed": 5}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("avg seed=5: status %d: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	decodeInto(t, data, &sr)
	if sr.Algorithm != "AVG" {
		t.Errorf("algorithm = %q, want AVG", sr.Algorithm)
	}
	if !sameAssignment(sr.Assignment, want) {
		t.Error("served AVG(seed=5) diverges from the library result")
	}

	// Unknown algorithm: 400 listing the registry.
	resp, data = postJSON(t, ts.URL+"/v1/solve", withAlgo(t, body, "gurobi", ""))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algo: status %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	decodeInto(t, data, &er)
	if !strings.Contains(er.Error, "unknown solver") || !strings.Contains(er.Error, "avgd") {
		t.Errorf("unknown-algo error %q does not list the registry", er.Error)
	}

	// Unknown parameter: 400 naming it.
	resp, data = postJSON(t, ts.URL+"/v1/solve", withAlgo(t, body, "avgd", `{"rr": 1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown param: status %d, want 400", resp.StatusCode)
	}
	decodeInto(t, data, &er)
	if !strings.Contains(er.Error, `"rr"`) {
		t.Errorf("unknown-param error %q does not name the parameter", er.Error)
	}

	// Out-of-range parameter: 400 from the solver's validation.
	resp, data = postJSON(t, ts.URL+"/v1/solve", withAlgo(t, body, "avgd", `{"sizeCap": -1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad param value: status %d, want 400", resp.StatusCode)
	}
	decodeInto(t, data, &er)
	if !strings.Contains(er.Error, "sizeCap") {
		t.Errorf("range error %q does not name the parameter", er.Error)
	}
}

// TestDefaultParamsBackExplicitDefaultAlgo: a request naming the server's
// default algorithm explicitly resolves the server's flag-derived default
// parameters (svgicd passes the same params it built the engine with), so
// bare and explicit requests return the same result; request "params"
// overlay the defaults.
func TestDefaultParamsBackExplicitDefaultAlgo(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	srv, err := New(Options{
		Engine:        eng,
		Sessions:      testManager(t, eng, session.Options{}),
		DefaultAlgo:   "avgd",
		DefaultParams: registry.Params{"r": 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	in, body := testInstance(t, 34)

	// {"algo":"avgd"} must resolve r=1 (the server default), not the
	// registry default r=0.25.
	want, _, err := core.SolveAVGD(in, core.AVGDOptions{R: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/solve", withAlgo(t, body, "avgd", ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	decodeInto(t, data, &sr)
	if !sameAssignment(sr.Assignment, want) {
		t.Error(`explicit {"algo":"avgd"} diverges from the server's configured default parameters`)
	}

	// Case variants of the default algorithm select the same defaults
	// (registry lookup is case-insensitive, so the overlay must be too).
	resp, data = postJSON(t, ts.URL+"/v1/solve", withAlgo(t, body, "AVGD", ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upper-case algo: status %d: %s", resp.StatusCode, data)
	}
	decodeInto(t, data, &sr)
	if !sameAssignment(sr.Assignment, want) {
		t.Error(`{"algo":"AVGD"} dropped the server's default parameters`)
	}

	// Request params overlay the server defaults.
	wantQuarter, _, err := core.SolveAVGD(in, core.AVGDOptions{R: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	resp, data = postJSON(t, ts.URL+"/v1/solve", withAlgo(t, body, "avgd", `{"r": 0.25}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("override: status %d: %s", resp.StatusCode, data)
	}
	decodeInto(t, data, &sr)
	if !sameAssignment(sr.Assignment, wantQuarter) {
		t.Error(`request "params" did not overlay the server defaults`)
	}

	// Invalid DefaultParams fail at construction, not on the first request.
	if _, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{}), DefaultParams: registry.Params{"bogus": 1}}); err == nil {
		t.Error("bad DefaultParams accepted at server construction")
	}
}

// TestBatchMixedAlgorithms: one batch may mix algorithms per item; results
// stay positional and per-item correct.
func TestBatchMixedAlgorithms(t *testing.T) {
	_, _, ts := newAlgoServer(t)
	in, body := testInstance(t, 33)

	var sr SolveRequest
	decodeInto(t, body, &sr.InstanceJSON)
	avgd := sr
	avgd.Algo = "avgd"
	per := sr
	per.Algo = "per"
	batch, err := json.Marshal([]SolveRequest{avgd, per, avgd})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	decodeInto(t, data, &br)
	if len(br.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(br.Results))
	}
	wantAVGD, _, err := core.SolveAVGD(in, core.AVGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantPER := core.PersonalizedConfig(in)
	for i, want := range []*core.Configuration{wantAVGD, wantPER, wantAVGD} {
		wantName := "AVG-D"
		if i == 1 {
			wantName = "PER"
		}
		if br.Results[i].Algorithm != wantName {
			t.Errorf("result %d: algorithm %q, want %q", i, br.Results[i].Algorithm, wantName)
		}
		if !sameAssignment(br.Results[i].Assignment, want) {
			t.Errorf("result %d diverges from the %s library result", i, wantName)
		}
	}
}

// TestAlgorithmsEndpoint: the registry is discoverable over the wire, with
// parameter schemas.
func TestAlgorithmsEndpoint(t *testing.T) {
	_, _, ts := newAlgoServer(t)
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var ar AlgorithmsResponse
	decodeInto(t, data, &ar)
	if ar.Default != "avgd" {
		t.Errorf("default = %q, want avgd", ar.Default)
	}
	byName := map[string]AlgorithmInfo{}
	for _, a := range ar.Algorithms {
		byName[a.Name] = a
	}
	for _, name := range []string{"avg", "avgd", "per", "fmg", "sdp", "grf", "ip"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("algorithm %q missing from /v1/algorithms", name)
		}
	}
	if byName["avgd"].Display != "AVG-D" {
		t.Errorf("avgd display = %q", byName["avgd"].Display)
	}
	var hasR bool
	for _, p := range byName["avgd"].Params {
		if p.Name == "r" && p.Kind == "float" {
			hasR = true
		}
	}
	if !hasR {
		t.Error("avgd parameter schema does not describe r")
	}
	// POST is refused.
	post, err := http.Post(ts.URL+"/v1/algorithms", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/algorithms: status %d, want 405", post.StatusCode)
	}
}

// TestLPDeadlineFreesWorker: LP iteration counts arrive unbounded in request
// params, so a request's deadline has to stop the LP itself. An avgd request
// asking for 2^30 polish steps under a 100ms budget answers 504, and the
// single engine worker it ran on is free again for the next request.
func TestLPDeadlineFreesWorker(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	in, err := datasets.Generate(datasets.Timik, 24, 50, 5, 0.5, utility.PIERT, 3)
	if err != nil {
		t.Fatal(err)
	}
	body, err := core.MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, ts.URL+"/v1/solve?timeout=100ms", withAlgo(t, body, "avgd", `{"lpPolish":1073741824}`))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("unbounded LP under a 100ms budget: status %d, want 504: %s", resp.StatusCode, data)
	}
	_, small := testInstance(t, 4)
	if resp, data := postJSON(t, ts.URL+"/v1/solve?timeout=30s", withAlgo(t, small, "avgd", "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up solve on the same worker: status %d: %s", resp.StatusCode, data)
	}
}

// FuzzResolveSolver feeds arbitrary selections through the "algo"/"params"
// trust boundary that solves, batch items, session creates and recovery
// share. Resolution must not panic, an error must come with no solver, two
// calls must agree (both nil, or equal solver keys), and a solver resolved
// under a size cap must carry that cap in its key.
func FuzzResolveSolver(f *testing.F) {
	for _, seed := range []struct {
		algo, params string
		sizeCap      int
	}{
		{"", "", 0},
		{"avgd", "", 0},
		{"", `{"r": 0.5}`, 0},
		{"AVGD", `{"lpPolish": 3}`, 0},
		{"gurobi", "", 0},
		{"avg", `[1, 2]`, 0},
		{"per", "", 2},
		{"avgd", `{"sizeCap": 3}`, 2},
		{"avgd", `{"sizeCap": 2}`, 2},
		{"avgd", `null`, 2},
		{"avgd", `{"lpPolish": 1e19}`, 0},
		{"avgd", `{"lpPolish": -1e19}`, 0},
		{"avg", `{"seed": 1e20}`, 0},
		{"avg", `{"seed": 18446744073709551615}`, 0},
	} {
		f.Add(seed.algo, []byte(seed.params), seed.sizeCap)
	}
	eng := engine.New(engine.Options{Workers: 1})
	f.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(f, eng, session.Options{}), DefaultParams: registry.Params{"r": 1.0}})
	if err != nil {
		f.Fatal(err)
	}
	key := func(s core.Solver) string {
		if s == nil {
			return "<nil>"
		}
		return engine.SolverKey(s)
	}
	f.Fuzz(func(t *testing.T, algo string, params []byte, sizeCap int) {
		a, errA := srv.resolveSolver(algo, params, sizeCap)
		b, errB := srv.resolveSolver(algo, params, sizeCap)
		if (errA != nil || errB != nil) && (a != nil || b != nil) {
			t.Fatalf("resolveSolver(%q, %q, %d) returned a solver with an error", algo, params, sizeCap)
		}
		if (errA == nil) != (errB == nil) || key(a) != key(b) {
			t.Fatalf("resolveSolver(%q, %q, %d) disagrees with itself: %s (%v) then %s (%v)",
				algo, params, sizeCap, key(a), errA, key(b), errB)
		}
		if errA == nil && sizeCap > 0 {
			k, want := key(a), fmt.Sprintf("sizeCap=%d", sizeCap)
			if !strings.Contains(k, want+",") && !strings.Contains(k, want+"}") {
				t.Fatalf("resolveSolver(%q, %q, %d) = %s, want %s in the key", algo, params, sizeCap, k, want)
			}
		}
	})
}
