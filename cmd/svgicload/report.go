package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"github.com/svgic/svgic/internal/server"
	"github.com/svgic/svgic/internal/telemetry"
)

// shot is one timed request.
type shot struct {
	kind    string
	status  int
	latency time.Duration // to the response headers
	err     error
}

// wantStatus is the success status of each request kind the report judges.
// Any other status except 429 (load shed by admission control) is a
// failure.
var wantStatus = map[string]int{
	"solve":  http.StatusOK,
	"create": http.StatusCreated,
	"events": http.StatusOK,
	"get":    http.StatusOK,
	"delete": http.StatusNoContent,
}

// do sends one request, with body (when non-nil) as JSON. A 2xx response
// is decoded into out when out is non-nil; anything else is drained.
func do(client *http.Client, kind, method, url string, body []byte, out any) shot {
	sh := shot{kind: kind}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		sh.err = err
		return sh
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		sh.err = err
		return sh
	}
	defer resp.Body.Close()
	sh.status, sh.latency = resp.StatusCode, time.Since(t0)
	if resp.StatusCode < 300 && out != nil {
		sh.err = json.NewDecoder(resp.Body).Decode(out)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return sh
}

// report prints the status histogram and, per request kind in first-seen
// order, the latency percentiles of its successful requests. It returns how
// many requests failed.
func report(shots []shot) (bad int) {
	statuses := make(map[int]int)
	lats := make(map[string][]time.Duration)
	var kinds []string
	for _, sh := range shots {
		if sh.err != nil {
			fmt.Fprintf(os.Stderr, "svgicload: %s: %v\n", sh.kind, sh.err)
			bad++
			continue
		}
		statuses[sh.status]++
		switch sh.status {
		case wantStatus[sh.kind]:
			if _, seen := lats[sh.kind]; !seen {
				kinds = append(kinds, sh.kind)
			}
			lats[sh.kind] = append(lats[sh.kind], sh.latency)
		case http.StatusTooManyRequests:
		default:
			bad++
		}
	}
	codes := make([]int, 0, len(statuses))
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	fmt.Print("status:")
	for _, code := range codes {
		fmt.Printf(" %d×%d", code, statuses[code])
	}
	fmt.Println()
	// Percentiles come from the same merging t-digest the daemon's
	// telemetry windows use.
	round := func(s float64) time.Duration {
		return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond)
	}
	for _, kind := range kinds {
		d := telemetry.NewDigest()
		for _, l := range lats[kind] {
			d.Add(l.Seconds())
		}
		fmt.Printf("%-7s latency: n=%d p50=%v p90=%v p99=%v max=%v\n", kind, len(lats[kind]),
			round(d.Quantile(0.5)), round(d.Quantile(0.9)), round(d.Quantile(0.99)), round(d.Max()))
	}
	return bad
}

// fetchStats reads the daemon's /v1/stats.
func fetchStats(c *child) (*server.StatsResponse, error) {
	var st server.StatsResponse
	sh := do(c.client, "stats", http.MethodGet, c.base+"/v1/stats", nil, &st)
	if sh.err == nil && sh.status != http.StatusOK {
		sh.err = fmt.Errorf("status %d", sh.status)
	}
	if sh.err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", sh.err)
	}
	return &st, nil
}

// printStats fetches /v1/stats, summarizes the serving-path counters the
// load exists to demonstrate, and returns the payload so callers can assert
// on it (-assert-slo-degrade).
func printStats(c *child) (*server.StatsResponse, error) {
	st, err := fetchStats(c)
	if err != nil {
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
	co := st.Coalesce
	collapsed := 0.0
	if co.Leads+co.Joins > 0 {
		collapsed = 100 * float64(co.Joins) / float64(co.Leads+co.Joins)
	}
	fmt.Printf("coalesce: enabled=%v leads=%d joins=%d (%.1f%% of coalesced traffic collapsed)\n",
		co.Enabled, co.Leads, co.Joins, collapsed)
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
	}
	if slo := st.SLO; slo != nil {
		fmt.Printf("slo: adaptive=%v level=%s effectiveMaxInFlight=%d transitions=%d adaptiveShed=%d degraded=%d\n",
			slo.AdaptiveAdmission, slo.Level, slo.EffectiveMaxInFlight, slo.Transitions, slo.AdaptiveShed, slo.DegradedTotal)
		for _, o := range slo.Objectives {
			fmt.Printf("slo[%s]: state=%s fastBurn=%.2f slowBurn=%.2f observed=%.2fms samples=%d\n",
				o.Name, o.State, o.FastBurn, o.SlowBurn, o.ObservedMS, o.Samples)
		}
	}
	return st, nil
}
