package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/store"
)

// durableStack is the full durable serving stack over one data directory:
// engine + store + manager (persisting through the store) + server
// (recovering through the store) + httptest front.
type durableStack struct {
	eng *engine.Engine
	st  *store.Store
	mgr *session.Manager
	srv *Server
	ts  *httptest.Server
}

func openDurableStack(t *testing.T, dir string, policy store.SyncPolicy, snapshotEvery int) *durableStack {
	t.Helper()
	backend, err := store.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Backend: backend, Sync: policy})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	mgr, err := session.NewManager(session.Options{
		Engine:        eng,
		Persister:     st,
		SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Engine: eng, Sessions: mgr, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return &durableStack{eng: eng, st: st, mgr: mgr, srv: srv, ts: httptest.NewServer(srv)}
}

// stop tears the stack down in dependency order (flushing everything to
// disk — the in-process analogue of a clean restart; torn-tail and
// mid-write crash shapes are exercised by the store tests and the
// crash-smoke lane, which SIGKILLs a real process).
func (d *durableStack) stop() {
	d.ts.Close()
	d.mgr.Close()
	d.st.Close()
	d.eng.Close()
}

// TestKillRestartServesIdenticalState is the PR's acceptance test at the
// serving layer, run under every fsync policy: sessions created over HTTP
// (mixed algorithms, one SVGIC-ST-capped), driven with a recorded trace,
// then the whole stack is torn down and rebuilt on the same directory —
// recovery must serve the identical (version, value, configuration, active
// set) that an offline session.Replay of the recorded trace produces, with
// snapshot compaction bounding the replayed tail (asserted via store
// stats), a pre-crash DELETE staying deleted, and recovered sessions
// keeping their algorithm for drift repair.
func TestKillRestartServesIdenticalState(t *testing.T) {
	for _, policy := range []store.SyncPolicy{store.SyncAlways, store.SyncInterval, store.SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			d := openDurableStack(t, dir, policy, 8)

			type tracked struct {
				id     string
				algo   string
				cap    int
				in     *core.Instance
				events []session.Event
			}
			var live []*tracked
			for i, spec := range []struct {
				algo string
				cap  int
			}{{"avgd", 0}, {"avg", 0}, {"avgd", 2}} {
				in, raw := testInstance(t, uint64(60+i))
				trace := session.GenerateEvents(in.NumUsers(), in.NumItems, 21, uint64(600+i))
				var req CreateSessionRequest
				decodeInto(t, raw, &req.InstanceJSON)
				req.Algo = spec.algo
				req.SizeCap = spec.cap
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				resp, data := doJSON(t, http.MethodPost, d.ts.URL+"/v1/sessions", body)
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("create %d: status %d: %s", i, resp.StatusCode, data)
				}
				var created CreateSessionResponse
				decodeInto(t, data, &created)
				tr := &tracked{id: created.ID, algo: spec.algo, cap: spec.cap, in: in, events: trace}
				live = append(live, tr)
				for at := 0; at < len(trace); at += 4 {
					end := min(at+4, len(trace))
					eb, err := json.Marshal(SessionEventsRequest{Events: trace[at:end]})
					if err != nil {
						t.Fatal(err)
					}
					resp, data := doJSON(t, http.MethodPost, d.ts.URL+"/v1/sessions/"+created.ID+"/events", eb)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("events[%d:%d]: status %d: %s", at, end, resp.StatusCode, data)
					}
				}
			}
			// One more session, deleted before the crash: its tombstone must
			// hold across the restart.
			_, rawDel := testInstance(t, 77)
			var delReq CreateSessionRequest
			decodeInto(t, rawDel, &delReq.InstanceJSON)
			delBody, _ := json.Marshal(delReq)
			resp, data := doJSON(t, http.MethodPost, d.ts.URL+"/v1/sessions", delBody)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create deletable: status %d: %s", resp.StatusCode, data)
			}
			var deletable CreateSessionResponse
			decodeInto(t, data, &deletable)
			if resp, _ := doJSON(t, http.MethodDelete, d.ts.URL+"/v1/sessions/"+deletable.ID, nil); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete: status %d", resp.StatusCode)
			}

			d.stop()

			// Restart on the same directory; server.New recovers before the
			// first request.
			d2 := openDurableStack(t, dir, policy, 8)
			defer d2.stop()

			for _, tr := range live {
				resp, data := doJSON(t, http.MethodGet, d2.ts.URL+"/v1/sessions/"+tr.id, nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("recovered GET %s: status %d: %s", tr.id, resp.StatusCode, data)
				}
				var got SessionResponse
				decodeInto(t, data, &got)

				// Ground truth: solve through an identically configured
				// engine path and replay the full recorded trace offline.
				solver, err := d2.srv.resolveSolver(tr.algo, nil, tr.cap)
				if err != nil {
					t.Fatal(err)
				}
				var sol *core.Solution
				if solver != nil {
					sol, err = d2.eng.SolveWith(context.Background(), tr.in, solver)
				} else {
					sol, err = d2.eng.Solve(context.Background(), tr.in)
				}
				if err != nil {
					t.Fatal(err)
				}
				ds, err := core.NewDynamicSession(tr.in, sol.Config, tr.cap)
				if err != nil {
					t.Fatal(err)
				}
				if n, err := session.Replay(ds, tr.events); err != nil {
					t.Fatalf("offline replay stopped at %d: %v", n, err)
				}
				if got.Version != uint64(len(tr.events)) {
					t.Fatalf("session %s recovered at v%d, want v%d", tr.id, got.Version, len(tr.events))
				}
				if got.Value != ds.Value() {
					t.Fatalf("session %s: recovered value %v != offline replay %v", tr.id, got.Value, ds.Value())
				}
				wantConf := ds.Config()
				for u := range wantConf.Assign {
					for sl := range wantConf.Assign[u] {
						if got.Assignment[u][sl] != wantConf.Assign[u][sl] {
							t.Fatalf("session %s: assignment[%d][%d] = %d, offline %d",
								tr.id, u, sl, got.Assignment[u][sl], wantConf.Assign[u][sl])
						}
					}
				}
				wantActive := ds.ActiveUsers()
				if len(got.Active) != len(wantActive) {
					t.Fatalf("session %s: %d active, offline %d", tr.id, len(got.Active), len(wantActive))
				}
				for i := range wantActive {
					if got.Active[i] != wantActive[i] {
						t.Fatalf("session %s: active[%d] = %d, offline %d", tr.id, i, got.Active[i], wantActive[i])
					}
				}
				if tr.cap > 0 {
					conf := &core.Configuration{Assign: got.Assignment, K: got.Slots}
					if m := conf.MaxSubgroupSize(); m > tr.cap {
						t.Fatalf("session %s: recovered subgroup size %d violates cap %d", tr.id, m, tr.cap)
					}
				}
			}

			// The deleted session stays dead.
			if resp, _ := doJSON(t, http.MethodGet, d2.ts.URL+"/v1/sessions/"+deletable.ID, nil); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("deleted session resurrected: status %d", resp.StatusCode)
			}

			// Store stats over HTTP: everything recovered, and the snapshot
			// cadence (8) bounded replay to the post-snapshot tails — far
			// fewer than the 63 events ever applied.
			resp, data = doJSON(t, http.MethodGet, d2.ts.URL+"/v1/stats", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stats: status %d", resp.StatusCode)
			}
			var stats StatsResponse
			decodeInto(t, data, &stats)
			if stats.Store == nil || !stats.Store.Enabled {
				t.Fatal("store stats missing from /v1/stats")
			}
			if stats.Store.RecoveredSessions != 3 || stats.Store.RecoveryErrors != 0 {
				t.Fatalf("recovered %d sessions (%d errors), want 3/0",
					stats.Store.RecoveredSessions, stats.Store.RecoveryErrors)
			}
			total := uint64(3 * 21)
			if stats.Store.ReplayedEvents >= total {
				t.Fatalf("recovery replayed %d of %d events; snapshots did not bound the tail",
					stats.Store.ReplayedEvents, total)
			}
			if stats.Sessions.Restored != 3 {
				t.Fatalf("manager restored = %d, want 3", stats.Sessions.Restored)
			}
		})
	}
}

// TestRecoveredSessionKeepsAlgorithm: the persisted solver reference
// survives the restart — a session created with a non-default algorithm
// recovers reporting (and repairing with) that algorithm.
func TestRecoveredSessionKeepsAlgorithm(t *testing.T) {
	dir := t.TempDir()
	d := openDurableStack(t, dir, store.SyncOff, 1000)
	_, raw := testInstance(t, 71)
	var req CreateSessionRequest
	decodeInto(t, raw, &req.InstanceJSON)
	req.Algo = "avg"
	body, _ := json.Marshal(req)
	resp, data := doJSON(t, http.MethodPost, d.ts.URL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	var created CreateSessionResponse
	decodeInto(t, data, &created)
	d.stop()

	d2 := openDurableStack(t, dir, store.SyncOff, 1000)
	defer d2.stop()
	resp, data = doJSON(t, http.MethodGet, d2.ts.URL+"/v1/sessions/"+created.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered GET: status %d", resp.StatusCode)
	}
	var got SessionResponse
	decodeInto(t, data, &got)
	if got.Algorithm != created.Algorithm {
		t.Fatalf("recovered algorithm %q, want %q", got.Algorithm, created.Algorithm)
	}
}

// TestMetricsEndpoint: /metrics speaks Prometheus text format, carries the
// serving families, and agrees with /v1/stats.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	d := openDurableStack(t, dir, store.SyncOff, 1000)
	defer d.stop()
	_, raw := testInstance(t, 72)
	var req CreateSessionRequest
	decodeInto(t, raw, &req.InstanceJSON)
	body, _ := json.Marshal(req)
	if resp, data := doJSON(t, http.MethodPost, d.ts.URL+"/v1/sessions", body); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	// The creation snapshot is written asynchronously by a store shard;
	// wait for it so the snapshots counter below is deterministic.
	d.st.Barrier()

	resp, err := http.Get(d.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw2, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw2)
	checkExposition(t, text)

	for _, want := range []string{
		"# TYPE svgicd_requests_admitted_total counter",
		"# TYPE svgicd_engine_solves_total counter",
		"# TYPE svgicd_sessions_live gauge",
		"svgicd_sessions_live 1",
		"svgicd_sessions_created_total 1",
		`svgicd_engine_algo_solves_total{algo=`,
		"# TYPE svgicd_store_appends_total counter",
		"svgicd_store_snapshots_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q\n---\n%s", want, text)
		}
	}

	// POST is refused.
	pr, err := http.Post(d.ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", pr.StatusCode)
	}
}
