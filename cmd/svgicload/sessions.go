package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/daemon"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/server"
	"github.com/svgic/svgic/internal/session"
)

// eventBatch is the number of events per POST to a session.
const eventBatch = 4

// plan is one live session's workload and the progress its driver made.
type plan struct {
	instance core.InstanceJSON
	sizeCap  int
	algo     string // "" = the daemon's default solver
	events   []session.Event

	id    string // set once the session is created
	acked uint64 // last acknowledged version
}

// makePlans builds the per-session workloads, cycling the algorithm mix:
// -trace replayed into every session, or generated churn over small
// multi-component stores.
func makePlans(o *options) ([]*plan, error) {
	plans := make([]*plan, o.sessions)
	if o.trace != "" {
		data, err := os.ReadFile(o.trace)
		if err != nil {
			return nil, err
		}
		var trace session.TraceJSON
		if err := json.Unmarshal(data, &trace); err != nil {
			return nil, fmt.Errorf("decoding trace %s: %w", o.trace, err)
		}
		if err := trace.Validate(); err != nil {
			return nil, fmt.Errorf("trace %s: %w", o.trace, err)
		}
		fmt.Fprintf(os.Stderr, "svgicload: replaying %s (%d users, %d events) into %d session(s)\n",
			o.trace, trace.Instance.Users, len(trace.Events), o.sessions)
		for i := range plans {
			plans[i] = &plan{instance: trace.Instance, sizeCap: trace.SizeCap, algo: o.algos[i%len(o.algos)], events: trace.Events}
		}
		return plans, nil
	}
	// Instance and churn seeds both derive from -seed, so two runs with the
	// same flags drive byte-identical workloads — what the crash
	// verification's offline replay and reproducible CI runs rely on.
	perSession := max(o.requests/o.sessions, 1)
	for i := range plans {
		in := datasets.MultiGroup(o.seed+uint64(300+i), 2, 4, 12, 2, 0.5)
		plans[i] = &plan{
			instance: *core.InstanceAsJSON(in),
			algo:     o.algos[i%len(o.algos)],
			events:   session.GenerateEvents(in.NumUsers(), in.NumItems, perSession, o.seed+uint64(700+i)),
		}
	}
	return plans, nil
}

// shed429Retries bounds how often a session request shed with 429 is
// re-offered before the session is abandoned. 429 is the admission
// controller doing its job and never fails the run; re-offering instead of
// dropping keeps event traces intact, since a skipped batch would orphan
// later events that reference its joined users.
const shed429Retries = 40

// errShed reports a session request shed on every attempt: the session is
// abandoned, which is not a failure.
var errShed = errors.New("shed with 429 on every attempt")

// send issues one session request, re-offering it while the daemon sheds
// it, and appends every attempt to shots. It fails on a transport error or
// a status other than the kind's success status.
func (c *child) send(shots *[]shot, kind, method, path string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		sh := do(c.client, kind, method, c.base+path, body, out)
		*shots = append(*shots, sh)
		switch {
		case sh.err != nil:
			return fmt.Errorf("%s %s: %w", method, path, sh.err)
		case sh.status == wantStatus[kind]:
			return nil
		case sh.status != http.StatusTooManyRequests:
			return fmt.Errorf("%s %s: status %d", method, path, sh.status)
		case attempt == shed429Retries:
			return errShed
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// driveSession creates p's session and streams its events in batches of
// eventBatch, recording progress in p. Every acknowledged batch must
// advance the version by at least its event count; onAck, when non-nil, is
// then told how many events the batch held.
func driveSession(c *child, p *plan, onAck func(events int)) ([]shot, error) {
	var shots []shot
	body, err := json.Marshal(server.CreateSessionRequest{InstanceJSON: p.instance, Algo: p.algo, SizeCap: p.sizeCap})
	if err != nil {
		return shots, err
	}
	var created server.CreateSessionResponse
	if err := c.send(&shots, "create", http.MethodPost, "/v1/sessions", body, &created); err != nil {
		return shots, err
	}
	p.id, p.acked = created.ID, created.Version
	for at := 0; at < len(p.events); at += eventBatch {
		end := min(at+eventBatch, len(p.events))
		body, err := json.Marshal(server.SessionEventsRequest{Events: p.events[at:end]})
		if err != nil {
			return shots, err
		}
		var resp server.SessionEventsResponse
		if err := c.send(&shots, "events", http.MethodPost, "/v1/sessions/"+p.id+"/events", body, &resp); err != nil {
			return shots, fmt.Errorf("events[%d:%d]: %w", at, end, err)
		}
		// The wire contract under test: every applied event advances the
		// version by one; drift-repair swaps in between only push it further.
		if want := p.acked + uint64(len(resp.Results)); resp.Version < want {
			return shots, fmt.Errorf("session %s: version %d after %d events on version %d (want ≥ %d)",
				p.id, resp.Version, len(resp.Results), p.acked, want)
		}
		p.acked = resp.Version
		if onAck != nil {
			onAck(end - at)
		}
	}
	return shots, nil
}

// churn runs every plan's full session lifecycle concurrently and reports.
func churn(c *child, cfg *daemon.Config, o *options, plans []*plan) error {
	// With drift repair on, each session sits for one and a half repair
	// intervals after its event stream before the final read: a fast replay
	// would otherwise finish under the first tick and the report would show
	// zero repair cycles.
	settle := cfg.RepairInterval + cfg.RepairInterval/2
	shots := make([][]shot, len(plans))
	errs := make([]error, len(plans))
	start := time.Now()
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shots[i], errs[i] = lifecycle(c, p, settle)
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var all []shot
	for _, s := range shots {
		all = append(all, s...)
	}
	fmt.Printf("svgicload: %d sessions, %d requests in %v (%.1f req/s), algos=%s\n",
		len(plans), len(all), wall.Round(time.Millisecond), float64(len(all))/wall.Seconds(), strings.Join(o.algos, ","))
	bad := report(all)
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "svgicload: %v\n", err)
			bad++
		}
	}
	if _, err := printStats(c); err != nil {
		fmt.Fprintf(os.Stderr, "svgicload: %v\n", err)
		bad++
	}
	if bad > 0 {
		return fmt.Errorf("%d session requests failed", bad)
	}
	return nil
}

// lifecycle drives one session end to end: its event stream, the settle
// wait, a read-back whose version may not trail the last acknowledged one,
// and a delete. A session shed throughout is abandoned, not failed.
func lifecycle(c *child, p *plan, settle time.Duration) ([]shot, error) {
	shots, err := driveSession(c, p, nil)
	if err == nil {
		time.Sleep(settle)
		var got server.SessionResponse
		err = c.send(&shots, "get", http.MethodGet, "/v1/sessions/"+p.id, nil, &got)
		if err == nil && got.Version < p.acked {
			err = fmt.Errorf("session %s: GET version %d below last event version %d", p.id, got.Version, p.acked)
		}
		if err == nil {
			err = c.send(&shots, "delete", http.MethodDelete, "/v1/sessions/"+p.id, nil, nil)
		}
	}
	if errors.Is(err, errShed) {
		return shots, nil
	}
	return shots, err
}
