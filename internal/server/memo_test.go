package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/utility"
)

// held reports whether the memo stores body, without counting a lookup.
func held(m *solveMemo, body []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	el := m.byHash[maphash.Bytes(m.seed, body)]
	return el != nil && bytes.Equal(el.Value.(*memoEntry).body, body)
}

// postSolve posts body to /v1/solve in process.
func postSolve(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	return rec
}

// elapsed and timings match a solve response's request wall time, and
// that with the solver's, each with its leading comma, so a match removes
// the whole member.
var (
	elapsed = regexp.MustCompile(`,"elapsedMs":[^,}]*`)
	timings = regexp.MustCompile(`,"(elapsedMs|solveMs)":[^,}]*`)
)

// TestSolveMemoStoresOnlySuccesses: a body refused at any stage — oversized,
// malformed, an invalid instance, an unknown algorithm — gets the same 4xx
// on a repeat and is never stored, while a body answered 200 is stored and
// its repeat is a hit.
func TestSolveMemoStoresOnlySuccesses(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	_, good := testInstance(t, 3)
	for _, tc := range []struct {
		name string
		body []byte
		code int
	}{
		// Well-formed JSON that ends one byte past the 8 MiB cap.
		{"oversized", append(bytes.Repeat([]byte(" "), 8<<20+1-len(good)), good...), http.StatusRequestEntityTooLarge},
		// Malformed from its first byte and over the cap: read whole, so 413.
		{"oversized malformed", append([]byte("{{"), bytes.Repeat([]byte(" "), 8<<20)...), http.StatusRequestEntityTooLarge},
		{"truncated", good[:len(good)/2], http.StatusBadRequest},
		{"unknown field", append([]byte(`{"colour":1,`), good[1:]...), http.StatusBadRequest},
		{"trailing content", append(append([]byte{}, good...), `{}`...), http.StatusBadRequest},
		{"lambda out of range", []byte(`{"users":1,"items":2,"slots":1,"lambda":2,"preferences":[[1,0]]}`), http.StatusBadRequest},
		{"edge outside users", []byte(`{"users":2,"items":2,"slots":1,"lambda":0.5,"edges":[{"from":0,"to":2}],"preferences":[[1,0],[0,1]]}`), http.StatusBadRequest},
		{"unknown algorithm", append([]byte(`{"algo":"gurobi",`), good[1:]...), http.StatusBadRequest},
		{"bad params", append([]byte(`{"algo":"avgd","params":{"lpPolish":1e19},`), good[1:]...), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.memo.snapshot()
			first, second := postSolve(srv, tc.body), postSolve(srv, tc.body)
			if first.Code != tc.code || second.Code != tc.code {
				t.Fatalf("status %d then %d, want %d twice: %s", first.Code, second.Code, tc.code, first.Body)
			}
			if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
				t.Errorf("answers differ:\n%s\n%s", first.Body, second.Body)
			}
			if held(srv.memo, tc.body) {
				t.Fatal("a refused body was stored")
			}
			// Nothing refused was stored, so nothing refused can hit.
			if after := srv.memo.snapshot(); after.Hits != before.Hits {
				t.Errorf("memo %+v -> %+v: a refused body hit", before, after)
			}
		})
	}

	if rec := postSolve(srv, good); rec.Code != http.StatusOK {
		t.Fatalf("good body: status %d: %s", rec.Code, rec.Body)
	}
	if !held(srv.memo, good) {
		t.Fatal("a solved body was not stored")
	}
	before := srv.memo.snapshot()
	if rec := postSolve(srv, good); rec.Code != http.StatusOK {
		t.Fatalf("good body again: status %d: %s", rec.Code, rec.Body)
	}
	if after := srv.memo.snapshot(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("memo %+v -> %+v, want one more hit", before, after)
	}
}

// TestSolveMemoHitMatchesMiss: a memo hit answers what its miss answered,
// byte for byte once elapsedMs is masked (solveMs is the cached solve's on
// both), for a bare body and for one with an algorithm selection.
func TestSolveMemoHitMatchesMiss(t *testing.T) {
	srv, _, ts := newAlgoServer(t)
	_, bare := testInstance(t, 4)
	for _, body := range [][]byte{bare, withAlgo(t, bare, "AVG", `{"seed": 7}`), withAlgo(t, bare, "per", "")} {
		before := srv.memo.snapshot()
		missResp, miss := postJSON(t, ts.URL+"/v1/solve", body)
		hitResp, hit := postJSON(t, ts.URL+"/v1/solve", body)
		if missResp.StatusCode != http.StatusOK || hitResp.StatusCode != http.StatusOK {
			t.Fatalf("status %d then %d: %s", missResp.StatusCode, hitResp.StatusCode, miss)
		}
		after := srv.memo.snapshot()
		if after.Misses != before.Misses+1 || after.Hits != before.Hits+1 {
			t.Fatalf("memo %+v -> %+v, want one miss then one hit", before, after)
		}
		if m, h := elapsed.ReplaceAll(miss, nil), elapsed.ReplaceAll(hit, nil); !bytes.Equal(m, h) {
			t.Errorf("hit differs from miss:\n%s\n%s", h, m)
		}
	}
}

// TestFastHitKeepsTimings: the engine answers a memo-and-cache hit of a
// 2-user instance in about a microsecond, often less, and each of 1,000
// such answers must still carry a positive elapsedMs (and the cached
// solve's solveMs).
func TestFastHitKeepsTimings(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"users":2,"items":2,"slots":1,"lambda":0.5,"edges":[{"from":0,"to":1}],"preferences":[[1,0],[0,1]]}`)
	if rec := postSolve(srv, body); rec.Code != http.StatusOK {
		t.Fatalf("setup solve: status %d: %s", rec.Code, rec.Body)
	}
	const hits = 1000
	for i := 0; i < hits; i++ {
		rec := postSolve(srv, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("hit %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var sr SolveResponse
		decodeInto(t, rec.Body.Bytes(), &sr)
		if !(sr.ElapsedMS > 0) || !(sr.SolveMS > 0) {
			t.Fatalf("hit %d lost its timings: %s", i, rec.Body)
		}
	}
	if st := srv.StatsSnapshot(); st.Memo.Hits != hits || st.Engine.CacheHits != hits {
		t.Errorf("memo hits %d, cache hits %d, want %d of each", st.Memo.Hits, st.Engine.CacheHits, hits)
	}
}

// TestSolveMemoBudget: across many distinct bodies the memo never holds
// more than memoBudget bytes, each eviction is counted, the least recently
// used body goes first, and a body over memoMaxBody is never stored.
func TestSolveMemoBudget(t *testing.T) {
	m := newSolveMemo()
	const size = 300 << 10
	fits := memoBudget / size
	body := func(i int) []byte {
		b := bytes.Repeat([]byte{' '}, size)
		copy(b, fmt.Sprint(i))
		return b
	}
	for i := 0; i < 3*fits; i++ {
		b := body(i)
		if _, h, ok := m.get(b); !ok {
			m.put(h, b, solveInput{})
		}
		// Keep body 0 the most recently used.
		if _, _, ok := m.get(body(0)); !ok {
			t.Fatalf("after %d puts: the most recently used body was evicted", i+1)
		}
		if m.bytes > memoBudget {
			t.Fatalf("after %d puts: %d bytes held, budget %d", i+1, m.bytes, memoBudget)
		}
	}
	st := m.snapshot()
	if n := m.order.Len(); n != fits || st.Evictions != uint64(3*fits-fits) {
		t.Errorf("holds %d bodies after %d evictions, want %d after %d", n, st.Evictions, fits, 3*fits-fits)
	}
	if held(m, body(1)) || !held(m, body(3*fits-1)) {
		t.Error("eviction did not take the least recently used body first")
	}

	big := bytes.Repeat([]byte{' '}, memoMaxBody+1)
	_, h, _ := m.get(big)
	m.put(h, big, solveInput{})
	if held(m, big) || m.snapshot().Evictions != st.Evictions {
		t.Error("a body over memoMaxBody was stored")
	}
}

// TestSolveMemoSharedInstanceRace runs the solver on one memoized instance
// while concurrent hits on the same body validate and fingerprint it. The
// result cache is off, so every flight runs the solver. One hit is held in
// the solver until another hit has joined its flight, so the two provably
// overlap; then free-running clients keep hitting while flights solve. Under
// -race any write to the shared instance is a report.
func TestSolveMemoSharedInstanceRace(t *testing.T) {
	srv, gate, runs := newGatedServer(t, Options{MaxInFlight: 16})
	_, body := testInstance(t, 5)
	answers := make(chan int, 2)
	post := func() { answers <- postSolve(srv, body).Code }

	go post() // the miss that stores the body
	waitFor(t, "the first solve", func() bool { return runs.Load() == 1 })
	gate <- struct{}{}
	if code := <-answers; code != http.StatusOK {
		t.Fatalf("first solve: status %d", code)
	}
	go post() // a hit that leads a flight and parks in the solver
	waitFor(t, "the held solve", func() bool { return runs.Load() == 2 })
	go post() // a hit that joins it
	waitFor(t, "a hit to join the held solve", func() bool { return srv.StatsSnapshot().Coalesce.Joins == 1 })
	close(gate)

	const clients, each = 4, 8
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if postSolve(srv, body).Code != http.StatusOK {
					failed.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		if code := <-answers; code != http.StatusOK {
			t.Errorf("held solve: status %d", code)
		}
	}
	wg.Wait()
	if failed.Load() > 0 {
		t.Fatalf("%d concurrent solves failed", failed.Load())
	}
	if st := srv.memo.snapshot(); st.Hits != 2+clients*each || st.Misses != 1 {
		t.Errorf("memo %+v, want %d hits after 1 miss", st, 2+clients*each)
	}
}

// FuzzSolveMemo posts arbitrary bytes to /v1/solve twice. Both answers must
// have the same status and, with elapsedMs and solveMs masked, the same
// body; a body answered with anything but 200 must not be stored, and one
// answered 200 (within memoMaxBody) must be.
func FuzzSolveMemo(f *testing.F) {
	eng := engine.New(engine.Options{Workers: 1})
	f.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(f, eng, session.Options{})})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		first, second := postSolve(srv, body), postSolve(srv, body)
		if first.Code != second.Code {
			t.Fatalf("status %d then %d: %s", first.Code, second.Code, second.Body)
		}
		a, b := timings.ReplaceAll(first.Body.Bytes(), nil), timings.ReplaceAll(second.Body.Bytes(), nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("answers differ:\n%s\n%s", first.Body, second.Body)
		}
		if stored := held(srv.memo, body); stored != (first.Code == http.StatusOK && len(body) <= memoMaxBody) {
			t.Fatalf("status %d, body of %d bytes: stored %v", first.Code, len(body), stored)
		}
	})
}

// hotBodies encodes 32 solve requests shaped like perfbench's hot-solve
// groups: one shopper group per dataset profile with n 8–24, m 30–50 and
// k 3–5, every fourth one three groups of 8 folded together.
func hotBodies(tb testing.TB) [][]byte {
	tb.Helper()
	out := make([][]byte, 32)
	for i := range out {
		m, k, seed := 30+i*8%21, 3+i/3%3, uint64(i+1)
		in := datasets.MultiGroup(seed, 3, 8, m, k, 0.5)
		if i%4 != 3 {
			var err error
			if in, err = datasets.Generate(datasets.All()[i%3], 8+i*5%17, m, k, 0.5, utility.PIERT, seed); err != nil {
				tb.Fatal(err)
			}
		}
		var err error
		if out[i], err = json.Marshal(SolveRequest{InstanceJSON: *core.InstanceAsJSON(in)}); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// BenchmarkSolveHit is one /v1/solve of a group asking again for its cached
// configuration, through the in-process handler: the body is read, found in
// the decode memo, fingerprinted and answered from the result cache. The 32
// groups are solved once before the timer.
func BenchmarkSolveHit(b *testing.B) {
	eng := engine.New(engine.Options{Workers: 2})
	b.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(b, eng, session.Options{})})
	if err != nil {
		b.Fatal(err)
	}
	bodies := hotBodies(b)
	for _, body := range bodies {
		if rec := postSolve(srv, body); rec.Code != http.StatusOK {
			b.Fatalf("setup solve: status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := postSolve(srv, bodies[i%len(bodies)]); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
