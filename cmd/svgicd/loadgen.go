package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	svgic "github.com/svgic/svgic"
	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/server"
	"github.com/svgic/svgic/internal/telemetry"
)

// The load generator drives /v1/solve with a mix of one "hot" instance
// (repeated with probability dup-frac — the flash-crowd shape that exercises
// coalescing and the result cache) and a pool of distinct instances (fresh
// solver work), then probes /v1/solve/batch, /v1/evaluate, /v1/algorithms
// and /healthz once each. -algo may name several solvers (comma-separated);
// requests cycle through them with an explicit "algo" field, exercising the
// per-algorithm cache/coalescing keys. It reports throughput, latency
// percentiles and the cache/coalesce counters from /v1/stats (split per
// algorithm when mixing), and fails on any response status other than 200
// or 429 — 429 is the admission controller doing its job, anything else is
// a serving bug.

// loadgenPoolSize is the number of distinct (non-hot) instances cycled by
// the generator.
const loadgenPoolSize = 16

type shot struct {
	status  int
	latency time.Duration
	err     error
}

// wrapAlgo rewraps a marshalled instance as a SolveRequest selecting the
// given algorithm.
func wrapAlgo(instance []byte, algo string) ([]byte, error) {
	var sr server.SolveRequest
	if err := json.Unmarshal(instance, &sr.InstanceJSON); err != nil {
		return nil, err
	}
	sr.Algo = algo
	return json.Marshal(sr)
}

func runLoadgen(cfg config) error {
	algos := strings.Split(cfg.algo, ",")
	for _, a := range algos {
		if _, ok := svgic.LookupSolver(a); !ok {
			return fmt.Errorf("unknown algorithm %q (want one of: %s)", a, strings.Join(svgic.SolverNames(), ", "))
		}
	}
	base, cleanup, err := targetOrInProcess(cfg)
	if err != nil {
		return err
	}
	defer cleanup()

	// One hot instance plus a pool of distinct ones, marshalled once per
	// algorithm in the mix (each request names its algorithm explicitly, so
	// the servers' cache and coalescing keys are exercised per algorithm).
	// The canonical multi-component serving workload: disjoint social rings
	// with synthetic utilities (see internal/datasets.MultiGroup).
	rawHot, err := core.MarshalInstance(datasets.MultiGroup(42, 3, 4, 12, 2, 0.5))
	if err != nil {
		return err
	}
	hotBy := make([][]byte, len(algos))
	for a, algo := range algos {
		if hotBy[a], err = wrapAlgo(rawHot, algo); err != nil {
			return err
		}
	}
	hot := hotBy[0]
	pool := make([][]byte, loadgenPoolSize)
	for i := range pool {
		raw, err := core.MarshalInstance(datasets.MultiGroup(uint64(100+i), 3, 4, 12, 2, 0.5))
		if err != nil {
			return err
		}
		if pool[i], err = wrapAlgo(raw, algos[i%len(algos)]); err != nil {
			return err
		}
	}

	client := &http.Client{Timeout: 2 * cfg.maxTimeout}
	indices := make(chan int)
	results := make(chan []shot, cfg.conc)
	var ticks <-chan time.Time
	if cfg.rps > 0 {
		t := time.NewTicker(time.Second / time.Duration(cfg.rps))
		defer t.Stop()
		ticks = t.C
	}

	start := time.Now()
	for w := 0; w < cfg.conc; w++ {
		go func() {
			var mine []shot
			for i := range indices {
				if ticks != nil {
					<-ticks
				}
				// Deterministic duplicate mix: request i repeats the hot
				// instance (cycling the algorithm mix) iff its residue falls
				// under dup-frac.
				body := hotBy[i%len(hotBy)]
				if float64(i%100) >= cfg.dupFrac*100 {
					body = pool[i%len(pool)]
				}
				mine = append(mine, post(client, base+"/v1/solve", body))
			}
			results <- mine
		}()
	}
	for i := 0; i < cfg.requests; i++ {
		indices <- i
	}
	close(indices)
	var shots []shot
	for w := 0; w < cfg.conc; w++ {
		shots = append(shots, <-results...)
	}
	wall := time.Since(start)
	if cfg.assertSLODegrade {
		if err := awaitDegrade(client, base, hotBy[0]); err != nil {
			return err
		}
	}

	// Single probes of the remaining surface: a batch with an internal
	// duplicate, an evaluate round-trip, algorithm discovery, and liveness.
	probeErr := probeOnce(client, base, rawHot, hot, pool[0])

	// Report.
	statuses := make(map[int]int)
	var lats []time.Duration
	bad := 0
	for _, sh := range shots {
		if sh.err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: transport error: %v\n", sh.err)
			bad++
			continue
		}
		statuses[sh.status]++
		if sh.status == http.StatusOK {
			lats = append(lats, sh.latency)
		}
		if sh.status != http.StatusOK && sh.status != http.StatusTooManyRequests {
			bad++
		}
	}
	fmt.Printf("loadgen: %d requests in %v (%.1f req/s), conc=%d dup-frac=%.2f rps-cap=%d algos=%s\n",
		cfg.requests, wall.Round(time.Millisecond), float64(cfg.requests)/wall.Seconds(), cfg.conc, cfg.dupFrac, cfg.rps,
		strings.Join(algos, ","))
	fmt.Printf("status:")
	for _, code := range sortedKeys(statuses) {
		fmt.Printf(" %d×%d", code, statuses[code])
	}
	fmt.Println()
	if len(lats) > 0 {
		p50, p90, p99, max := pctiles(lats)
		fmt.Printf("latency: p50=%v p90=%v p99=%v max=%v\n", p50, p90, p99, max)
	}
	st, err := printServerStats(client, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: stats fetch failed: %v\n", err)
		bad++
	}

	if probeErr != nil {
		return fmt.Errorf("endpoint probe failed: %w", probeErr)
	}
	if bad > 0 {
		return fmt.Errorf("%d requests failed with a status other than 200/429", bad)
	}
	if cfg.assertSLODegrade {
		return assertSLODegrade(st)
	}
	return nil
}

// targetOrInProcess resolves the loadgen target: the -target base URL when
// given, otherwise a full in-process server (engine + session manager +
// HTTP) built from the same flags serve mode uses. The returned cleanup
// tears the in-process stack down in dependency order.
func targetOrInProcess(cfg config) (string, func(), error) {
	if cfg.target != "" {
		return cfg.target, func() {}, nil
	}
	a, err := newApp(cfg)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		a.close()
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: a.srv}
	// Contract: Serve returns as soon as the returned cleanup calls
	// httpSrv.Close (net/http's own lifecycle, invisible to the WaitGroup /
	// done-channel model); the loadgen process then exits with it joined.
	//lint:ignore goleak acceptor terminated by httpSrv.Close in the cleanup func below
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "loadgen: in-process server on %s\n", base)
	return base, func() {
		httpSrv.Close()
		a.close()
	}, nil
}

// post sends one JSON document and drains the response.
func post(client *http.Client, url string, body []byte) shot {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return shot{err: err}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return shot{status: resp.StatusCode, latency: time.Since(t0)}
}

// probeOnce exercises the endpoints the solve storm does not touch. rawHot
// is the bare instance document; hot and other are SolveRequest bodies
// (possibly carrying "algo" fields).
func probeOnce(client *http.Client, base string, rawHot, hot, other []byte) error {
	// Batch with an internal duplicate: [hot, hot, other], preserving each
	// item's algorithm selection.
	var hj, oj server.SolveRequest
	if err := json.Unmarshal(hot, &hj); err != nil {
		return err
	}
	if err := json.Unmarshal(other, &oj); err != nil {
		return err
	}
	batch, err := json.Marshal([]server.SolveRequest{hj, hj, oj})
	if err != nil {
		return err
	}
	if sh := post(client, base+"/v1/solve/batch", batch); sh.err != nil || sh.status != http.StatusOK {
		return fmt.Errorf("batch probe: status %d, err %v", sh.status, sh.err)
	}

	// Evaluate a solved configuration for the hot instance.
	in, err := svgic.UnmarshalInstanceStrict(rawHot)
	if err != nil {
		return err
	}
	avgd, err := svgic.NewSolver("avgd", nil)
	if err != nil {
		return err
	}
	sol, err := avgd.Solve(context.Background(), in)
	if err != nil {
		return err
	}
	evalReq, err := json.Marshal(server.EvaluateRequest{
		Instance:      hj.InstanceJSON,
		Configuration: server.ConfigurationJSON{Slots: sol.Config.K, Assignment: sol.Config.Assign},
	})
	if err != nil {
		return err
	}
	if sh := post(client, base+"/v1/evaluate", evalReq); sh.err != nil || sh.status != http.StatusOK {
		return fmt.Errorf("evaluate probe: status %d, err %v", sh.status, sh.err)
	}

	// Algorithm discovery must list at least the registry's built-ins.
	resp, err := client.Get(base + "/v1/algorithms")
	if err != nil {
		return fmt.Errorf("algorithms probe: %w", err)
	}
	var ar server.AlgorithmsResponse
	err = json.NewDecoder(resp.Body).Decode(&ar)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(ar.Algorithms) < 7 {
		return fmt.Errorf("algorithms probe: status %d, %d algorithms, err %v", resp.StatusCode, len(ar.Algorithms), err)
	}

	resp, err = client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz probe: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz probe: status %d", resp.StatusCode)
	}
	return nil
}

// printServerStats fetches /v1/stats, summarizes the serving-path counters
// the loadgen exists to demonstrate, and returns the decoded payload so
// callers can assert on it (-assert-slo-degrade).
func printServerStats(client *http.Client, base string) (*server.StatsResponse, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	e := st.Engine
	lookups := e.CacheHits + e.CacheMisses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = 100 * float64(e.CacheHits) / float64(lookups)
	}
	fmt.Printf("engine: solves=%d solved=%d cacheHits=%d cacheMisses=%d hitRate=%.1f%% avgSolve=%.2fms workers=%d\n",
		e.Solves, e.Solved, e.CacheHits, e.CacheMisses, hitRate, e.AvgLatencyMS, e.Workers)
	if len(e.PerAlgorithm) > 0 {
		names := make([]string, 0, len(e.PerAlgorithm))
		for name := range e.PerAlgorithm {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := e.PerAlgorithm[name]
			fmt.Printf("engine[%s]: solves=%d solved=%d cacheHits=%d avgSolve=%.2fms\n",
				name, a.Solves, a.Solved, a.CacheHits, a.AvgLatencyMS)
		}
	}
	c := st.Coalesce
	collapsed := 0.0
	if c.Leads+c.Joins > 0 {
		collapsed = 100 * float64(c.Joins) / float64(c.Leads+c.Joins)
	}
	fmt.Printf("coalesce: enabled=%v leads=%d joins=%d (%.1f%% of coalesced traffic collapsed)\n",
		c.Enabled, c.Leads, c.Joins, collapsed)
	s := st.Server
	fmt.Printf("admission: admitted=%d shed=%d timeouts=%d clientClosed=%d badRequests=%d maxInFlight=%d\n",
		s.Admitted, s.Shed, s.Timeouts, s.ClientClosed, s.BadRequests, s.MaxInFlight)
	if ss := st.Sessions; ss.EventsApplied > 0 || ss.Created > 0 {
		fmt.Printf("sessions: live=%d created=%d evicted=%d rejected=%d events=%d (join=%d leave=%d update=%d rebalance=%d)\n",
			ss.Live, ss.Created, ss.Evicted, ss.Rejected, ss.EventsApplied, ss.Joins, ss.Leaves, ss.Updates, ss.Rebalances)
		swapRate := 0.0
		if done := ss.RepairSwaps + ss.RepairKeeps + ss.RepairStale; done > 0 {
			swapRate = 100 * float64(ss.RepairSwaps) / float64(done)
		}
		fmt.Printf("drift-repair: runs=%d swaps=%d keeps=%d stale=%d errors=%d (%.1f%% of completed cycles swapped)\n",
			ss.RepairRuns, ss.RepairSwaps, ss.RepairKeeps, ss.RepairStale, ss.RepairErrors, swapRate)
		if len(ss.PerShard) > 0 {
			// Routing imbalance: how unevenly the FNV-1a partition spread the
			// created sessions, as max-shard / mean-shard (1.00 = perfectly
			// uniform). Reported over created counts, not live — deletes and
			// evictions would mask a skewed router.
			var parts []string
			var total, maxCreated uint64
			for _, sp := range ss.PerShard {
				parts = append(parts, fmt.Sprintf("%d:%d", sp.Shard, sp.Created))
				total += sp.Created
				if sp.Created > maxCreated {
					maxCreated = sp.Created
				}
			}
			imbalance := 0.0
			if total > 0 {
				mean := float64(total) / float64(len(ss.PerShard))
				imbalance = float64(maxCreated) / mean
			}
			fmt.Printf("shards: n=%d created-per-shard=[%s] imbalance=%.2f (max/mean)\n",
				ss.Shards, strings.Join(parts, " "), imbalance)
		}
	}
	if slo := st.SLO; slo != nil {
		fmt.Printf("slo: adaptive=%v level=%s effectiveMaxInFlight=%d transitions=%d adaptiveShed=%d degraded=%d\n",
			slo.AdaptiveAdmission, slo.Level, slo.EffectiveMaxInFlight, slo.Transitions, slo.AdaptiveShed, slo.DegradedTotal)
		for _, o := range slo.Objectives {
			fmt.Printf("slo[%s]: state=%s fastBurn=%.2f slowBurn=%.2f observed=%.2fms samples=%d\n",
				o.Name, o.State, o.FastBurn, o.SlowBurn, o.ObservedMS, o.Samples)
		}
	}
	return &st, nil
}

// sloDegradeWait bounds how long -assert-slo-degrade keeps feeding the SLO
// controller after the storm.
const sloDegradeWait = 10 * time.Second

// awaitDegrade runs after the storm under -assert-slo-degrade. The ladder
// moves lazily, when a request arrives, so a storm can end right after the
// burn becomes visible and before any request was degraded. It therefore
// sends cache-defeating solves of hot (the storm's first algorithm), one at
// a time, until /v1/stats counts a degraded request or sloDegradeWait runs
// out; assertSLODegrade then judges the run on the same counters as ever.
// A follow-up answered with anything but 200 or 429 fails the run.
func awaitDegrade(client *http.Client, base string, hot []byte) error {
	var sr server.SolveRequest
	if err := json.Unmarshal(hot, &sr); err != nil {
		return err
	}
	p0 := sr.Preferences[0][0]
	start := time.Now()
	sent := 0
	for time.Since(start) < sloDegradeWait {
		resp, err := client.Get(base + "/v1/stats")
		if err != nil {
			return fmt.Errorf("slo-wait: stats fetch: %w", err)
		}
		var st server.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("slo-wait: stats decode: %w", err)
		}
		if st.SLO == nil || st.SLO.DegradedTotal > 0 {
			break
		}
		// A distinct preference per request misses the result cache, so
		// each one runs the solver the objective is watching.
		sent++
		sr.Preferences[0][0] = p0 + float64(sent)*1e-9
		body, err := json.Marshal(sr)
		if err != nil {
			return err
		}
		sh := post(client, base+"/v1/solve", body)
		if sh.err != nil {
			return fmt.Errorf("slo-wait: solve: %w", sh.err)
		}
		if sh.status != http.StatusOK && sh.status != http.StatusTooManyRequests {
			return fmt.Errorf("slo-wait: solve answered status %d", sh.status)
		}
	}
	fmt.Printf("slo-wait: %d follow-up solves over %v\n", sent, time.Since(start).Round(time.Millisecond))
	return nil
}

// maxSLOTransitions bounds the ladder movement -assert-slo-degrade
// tolerates: an overload run should climb and come back down, not flap.
// Normal→degrade→shed→degrade→normal is 4; double it for headroom.
const maxSLOTransitions = 8

// assertSLODegrade checks that the run actually exercised the adaptive
// admission path: the server must expose an SLO controller, it must have
// degraded at least one request, and the ladder must not have flapped.
func assertSLODegrade(st *server.StatsResponse) error {
	if st == nil || st.SLO == nil {
		return fmt.Errorf("-assert-slo-degrade: server reports no SLO controller (serve it with -slo)")
	}
	slo := st.SLO
	if !slo.AdaptiveAdmission {
		return fmt.Errorf("-assert-slo-degrade: adaptive admission is disabled on the server")
	}
	if slo.DegradedTotal == 0 {
		return fmt.Errorf("-assert-slo-degrade: no request was degraded (transitions=%d level=%s); the objective never burned hard enough",
			slo.Transitions, slo.Level)
	}
	if slo.Transitions > maxSLOTransitions {
		return fmt.Errorf("-assert-slo-degrade: %d ladder transitions exceed the flap bound %d",
			slo.Transitions, maxSLOTransitions)
	}
	fmt.Printf("slo-assert: ok (degraded=%d transitions=%d level=%s)\n",
		slo.DegradedTotal, slo.Transitions, slo.Level)
	return nil
}

// pctiles summarizes one latency population through the same merging
// t-digest the server's telemetry windows use, replacing the hand-rolled
// nearest-rank percentile code the solve and dynamic loadgens each carried.
func pctiles(lats []time.Duration) (p50, p90, p99, max time.Duration) {
	d := telemetry.NewDigest(0)
	for _, l := range lats {
		d.Add(l.Seconds())
	}
	round := func(s float64) time.Duration {
		return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond)
	}
	return round(d.Quantile(0.5)), round(d.Quantile(0.9)), round(d.Quantile(0.99)), round(d.Max())
}

func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
