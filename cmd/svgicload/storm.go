package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	svgic "github.com/svgic/svgic"
	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/server"
)

// poolSize is the number of distinct (non-hot) instances the storm cycles.
const poolSize = 16

// storm drives /v1/solve with the hot/pool mix, then probes the rest of
// the surface once and reports.
func storm(c *child, o *options) error {
	// The hot instance as one request per algorithm in the mix, then a pool
	// of distinct instances cycling the mix. Every request names its
	// algorithm, so the daemon's cache and coalescing keys are exercised per
	// algorithm. The canonical multi-component serving workload: disjoint
	// social rings with synthetic utilities (see internal/datasets.MultiGroup).
	hotIn := datasets.MultiGroup(42, 3, 4, 12, 2, 0.5)
	reqs := make([]server.SolveRequest, len(o.algos)+poolSize)
	for a, algo := range o.algos {
		reqs[a] = server.SolveRequest{InstanceJSON: *core.InstanceAsJSON(hotIn), Algo: algo}
	}
	for i := 0; i < poolSize; i++ {
		in := datasets.MultiGroup(uint64(100+i), 3, 4, 12, 2, 0.5)
		reqs[len(o.algos)+i] = server.SolveRequest{InstanceJSON: *core.InstanceAsJSON(in), Algo: o.algos[i%len(o.algos)]}
	}
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		var err error
		if bodies[i], err = json.Marshal(reqs[i]); err != nil {
			return err
		}
	}
	hot, pool := bodies[:len(o.algos)], bodies[len(o.algos):]

	var next atomic.Int64
	perClient := make([][]shot, o.conc)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= o.requests {
					return
				}
				// Deterministic duplicate mix: request i repeats the hot
				// instance (cycling the algorithm mix) iff its residue falls
				// under dup-frac.
				body := hot[i%len(hot)]
				if float64(i%100) >= o.dupFrac*100 {
					body = pool[i%len(pool)]
				}
				perClient[w] = append(perClient[w], do(c.client, "solve", http.MethodPost, c.base+"/v1/solve", body, nil))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if o.assertSLODegrade {
		if err := awaitDegrade(c, hot[0]); err != nil {
			return err
		}
	}
	probeErr := probeOnce(c, hotIn, reqs[0], reqs[len(o.algos)])

	var shots []shot
	for _, s := range perClient {
		shots = append(shots, s...)
	}
	fmt.Printf("svgicload: %d requests in %v (%.1f req/s), conc=%d dup-frac=%.2f algos=%s\n",
		o.requests, wall.Round(time.Millisecond), float64(o.requests)/wall.Seconds(), o.conc, o.dupFrac,
		strings.Join(o.algos, ","))
	bad := report(shots)
	st, err := printStats(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svgicload: %v\n", err)
		bad++
	}
	if probeErr != nil {
		return fmt.Errorf("endpoint probe failed: %w", probeErr)
	}
	if bad > 0 {
		return fmt.Errorf("%d requests failed with a status other than 200/429", bad)
	}
	// Hot bodies repeat byte for byte, so past the first answer of each
	// they must come from the daemon's decode memo.
	if o.dupFrac > 0 && st.Memo.Hits == 0 {
		return fmt.Errorf("no /v1/solve body was answered from the decode memo (misses=%d), though -dup-frac %.2f repeats the hot bodies",
			st.Memo.Misses, o.dupFrac)
	}
	if o.assertSLODegrade {
		return assertSLODegrade(st)
	}
	return nil
}

// probeOnce exercises the endpoints the solve storm does not touch: in is
// the hot instance, hot and other are storm requests.
func probeOnce(c *child, in *core.Instance, hot, other server.SolveRequest) error {
	// Batch with an internal duplicate: [hot, hot, other], preserving each
	// item's algorithm selection.
	batch, err := json.Marshal([]server.SolveRequest{hot, hot, other})
	if err != nil {
		return err
	}
	if sh := do(c.client, "batch", http.MethodPost, c.base+"/v1/solve/batch", batch, nil); sh.err != nil || sh.status != http.StatusOK {
		return fmt.Errorf("batch probe: status %d, err %v", sh.status, sh.err)
	}

	// Evaluate a solved configuration for the hot instance.
	avgd, err := svgic.NewSolver("avgd", nil)
	if err != nil {
		return err
	}
	sol, err := avgd.Solve(context.Background(), in)
	if err != nil {
		return err
	}
	evalReq, err := json.Marshal(server.EvaluateRequest{
		Instance:      hot.InstanceJSON,
		Configuration: core.ConfigurationJSON{Slots: sol.Config.K, Assignment: sol.Config.Assign},
	})
	if err != nil {
		return err
	}
	if sh := do(c.client, "evaluate", http.MethodPost, c.base+"/v1/evaluate", evalReq, nil); sh.err != nil || sh.status != http.StatusOK {
		return fmt.Errorf("evaluate probe: status %d, err %v", sh.status, sh.err)
	}

	// Algorithm discovery must list at least the registry's built-ins.
	var ar server.AlgorithmsResponse
	if sh := do(c.client, "algorithms", http.MethodGet, c.base+"/v1/algorithms", nil, &ar); sh.err != nil || sh.status != http.StatusOK || len(ar.Algorithms) < 7 {
		return fmt.Errorf("algorithms probe: status %d, %d algorithms, err %v", sh.status, len(ar.Algorithms), sh.err)
	}

	if sh := do(c.client, "healthz", http.MethodGet, c.base+"/healthz", nil, nil); sh.err != nil || sh.status != http.StatusOK {
		return fmt.Errorf("healthz probe: status %d, err %v", sh.status, sh.err)
	}
	return nil
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
func awaitDegrade(c *child, hot []byte) error {
	var sr server.SolveRequest
	if err := json.Unmarshal(hot, &sr); err != nil {
		return err
	}
	p0 := sr.Preferences[0][0]
	start := time.Now()
	sent := 0
	for time.Since(start) < sloDegradeWait {
		st, err := fetchStats(c)
		if err != nil {
			return fmt.Errorf("slo-wait: %w", err)
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
		sh := do(c.client, "solve", http.MethodPost, c.base+"/v1/solve", body, nil)
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
// admission path: the daemon must expose an SLO controller, it must have
// degraded at least one request, and the ladder must not have flapped.
func assertSLODegrade(st *server.StatsResponse) error {
	if st == nil || st.SLO == nil {
		return fmt.Errorf("-assert-slo-degrade: the daemon reports no SLO controller (give svgicd -slo)")
	}
	slo := st.SLO
	if !slo.AdaptiveAdmission {
		return fmt.Errorf("-assert-slo-degrade: adaptive admission is disabled on the daemon")
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
