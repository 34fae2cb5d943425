package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/store"
	"github.com/svgic/svgic/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenTraffic builds a stack that reaches every /v1/stats section and
// every /metrics family, drives a fixed request mix through it, and returns
// the httptest front once the store has written everything out:
//
//   - a store on SyncAlways with a short snapshot cadence (compactions);
//   - the objective "p50 solve < 100ms over 60s" on a ManualClock tracker,
//     so route latencies are zero and only injected samples burn;
//   - default solves twice (one cache hit), then per, then ip; injected
//     solve samples breach the objective and a second ip request degrades;
//   - one session driven through all four event kinds;
//   - one malformed body.
func goldenTraffic(t *testing.T) *httptest.Server {
	t.Helper()
	backend, err := store.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Backend: backend, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	mgr, err := session.NewManager(session.Options{Engine: eng, Persister: st, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	obj, tr, clk := sloObjective(t)
	srv, err := New(Options{
		Engine:    eng,
		Sessions:  mgr,
		Store:     st,
		Telemetry: tr,
		SLOs:      []telemetry.Objective{obj},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	in, body := testInstance(t, 7)
	solve := func(algo string, wantDegraded bool) {
		t.Helper()
		req := body
		if algo != "" {
			req = withAlgo(t, body, algo, "")
		}
		resp, data := postJSON(t, ts.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q solve: status %d: %s", algo, resp.StatusCode, data)
		}
		var sr SolveResponse
		decodeInto(t, data, &sr)
		if sr.Degraded != wantDegraded {
			t.Fatalf("%q solve: degraded %v, want %v", algo, sr.Degraded, wantDegraded)
		}
	}
	solve("", false)
	solve("", false)
	solve("per", false)
	solve("ip", false)
	burnSolve(tr, 10, 200*time.Millisecond)
	clk.Advance(250 * time.Millisecond)
	solve("ip", true)

	var create CreateSessionRequest
	decodeInto(t, body, &create.InstanceJSON)
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", mustJSON(t, create))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	var created CreateSessionResponse
	decodeInto(t, data, &created)
	events := session.GenerateEvents(in.NumUsers(), in.NumItems, 24, 3)
	for at := 0; at < len(events); at += 6 {
		batch := mustJSON(t, SessionEventsRequest{Events: events[at : at+6]})
		if resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/events", batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("events[%d:]: status %d: %s", at, resp.StatusCode, data)
		}
	}
	if s := mgr.Stats(); s.Joins == 0 || s.Leaves == 0 || s.Updates == 0 || s.Rebalances == 0 {
		t.Fatalf("event mix misses a kind: %+v", s)
	}

	if resp, _ := postJSON(t, ts.URL+"/v1/solve", []byte(`{"users":`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	st.Barrier()
	return ts
}

// get returns the body of a GET that must answer 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, data := doJSON(t, http.MethodGet, url, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// checkGolden compares got with testdata/name, rewriting the file instead
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestMetricsGolden pins every /metrics family block — HELP, TYPE and
// samples — as a set sorted by family name. Only the mean solve time is
// wall-clock and masked.
func TestMetricsGolden(t *testing.T) {
	ts := goldenTraffic(t)
	scrape := string(get(t, ts.URL+"/metrics"))
	checkExposition(t, scrape)
	scrape = strings.TrimSuffix(strings.TrimPrefix(scrape, "# HELP "), "\n")
	blocks := strings.Split(scrape, "\n# HELP ")
	for i, block := range blocks {
		if strings.HasPrefix(block, "svgicd_engine_avg_solve_seconds ") {
			lines := strings.Split(block, "\n")
			lines[2] = "svgicd_engine_avg_solve_seconds <masked>"
			block = strings.Join(lines, "\n")
		}
		blocks[i] = "# HELP " + block + "\n"
	}
	sort.Strings(blocks)
	checkGolden(t, "metrics.golden", []byte(strings.Join(blocks, "")))
}

// TestStatsGolden pins every /v1/stats JSON leaf as a sorted list of
// paths and values. Wall-clock timings (keys ending in Ms, except the
// objective's configured thresholdMs and windowMs) are masked, and so is
// snapshotBytes: each snapshot carries its session's creation time, whose
// RFC 3339 form varies in length.
func TestStatsGolden(t *testing.T) {
	ts := goldenTraffic(t)
	dec := json.NewDecoder(bytes.NewReader(get(t, ts.URL+"/v1/stats")))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var leaves []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(path+"."+k, e)
			}
		case []any:
			for i, e := range v {
				walk(fmt.Sprintf("%s[%d]", path, i), e)
			}
		default:
			key := path[strings.LastIndexAny(path, ".]")+1:]
			masked := (strings.HasSuffix(key, "Ms") && key != "thresholdMs" && key != "windowMs") || key == "snapshotBytes"
			val, _ := json.Marshal(v)
			if masked {
				val = []byte("<masked>")
			}
			leaves = append(leaves, fmt.Sprintf("%s %s\n", path[1:], val))
		}
	}
	walk("", doc)
	sort.Strings(leaves)
	checkGolden(t, "stats.golden", []byte(strings.Join(leaves, "")))
}
