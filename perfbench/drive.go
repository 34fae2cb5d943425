package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/svgic/svgic/internal/server"
)

// target is a serving stack under load: a child svgicd or, in traced mode,
// the in-process stack. With traced set every request carries a fresh
// request id in the reqIDHeader header.
type target struct {
	base   string
	hc     *http.Client
	traced bool
	nextID atomic.Uint64
}

const reqIDHeader = "X-Request-Id"

// send makes one request; in traced mode it also returns the request id.
func (t *target) send(method, path string, body []byte) (status int, out []byte, id uint64, err error) {
	if t.traced {
		id = t.nextID.Add(1)
	}
	status, out, err = do(t.hc, method, t.base+path, body, id)
	return status, out, id, err
}

// op is the client-side record of one timed op.
type op struct {
	idx    int // position in the workload's op sequence (session ops: the batch)
	stream int // session ops: the stream
	start  time.Time
	lat    time.Duration
	status int
	body   []byte
	id     uint64 // request id (traced mode)
	err    error
}

func (o *op) failed() bool { return o.err != nil || o.status != http.StatusOK }

// runSolves drives clients closed loops over /v1/solve: each client takes
// the next op index from a shared counter and sends body(idx), until the
// deadline (zero: no deadline) or until limit ops have been taken.
func runSolves(t *target, body func(int) []byte, limit int, deadline time.Time) []op {
	var next atomic.Int64
	per := make([][]op, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				start := time.Now()
				status, out, id, err := t.send(http.MethodPost, "/v1/solve", body(i))
				per[c] = append(per[c], op{idx: i, start: start, lat: time.Since(start), status: status, body: out, id: id, err: err})
			}
		}(c)
	}
	wg.Wait()
	return merge(per)
}

func merge(per [][]op) []op {
	var all []op
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// sessionRun is what one completed durable session returned: its stream
// and the final GET body.
type sessionRun struct {
	stream int
	final  []byte
}

// sessionTally is the outcome of a session-driving phase.
type sessionTally struct {
	ops      []op         // event-batch POSTs
	other    int          // creates, GETs and deletes sent
	failures []string     // first few failure descriptions
	failed   int          // failed requests of any kind
	done     []sessionRun // sessions that ran to completion
}

func (s *sessionTally) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// runSessions drives clients closed loops of whole session lifecycles:
// create from the stream's group, send its event batches (checking that
// every batch advances the version by its size), GET every getEvery
// batches and after the last, then delete. Client c runs streams c,
// c+clients, ... cyclically. With perClient > 0 each client runs that many
// sessions and stops; otherwise it runs until the deadline, deleting the
// session it is in when time runs out. With keep set sessions are left
// alive (the durable fill) and their final (version, value) recorded.
func runSessions(t *target, sts []stream, perClient int, deadline time.Time, keep bool) (*sessionTally, []recovered) {
	tallies := make([]sessionTally, clients)
	kept := make([][]recovered, clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tl := &tallies[c]
			expired := func() bool { return !deadline.IsZero() && !time.Now().Before(deadline) }
			for n := 0; perClient == 0 || n < perClient; n++ {
				if expired() {
					return
				}
				si := (c + clients*n) % len(sts)
				st := sts[si]
				status, body, _, err := t.send(http.MethodPost, "/v1/sessions", st.create)
				tl.other++
				var cr server.CreateSessionResponse
				if err == nil && status == http.StatusCreated {
					err = json.Unmarshal(body, &cr)
				}
				if err != nil || status != http.StatusCreated {
					tl.fail("create: status %d: %v %s", status, err, trim(body))
					continue
				}
				path := "/v1/sessions/" + cr.ID
				version := cr.Version
				var final []byte
				ok := true
				for b, batch := range st.batches {
					if expired() {
						ok = false
						break
					}
					start := time.Now()
					status, out, id, err := t.send(http.MethodPost, path+"/events", batch)
					o := op{idx: b, stream: si, start: start, lat: time.Since(start), status: status, id: id, err: err}
					var er server.SessionEventsResponse
					if !o.failed() {
						o.err = json.Unmarshal(out, &er)
					}
					size := uint64(min(eventBatch, len(st.events)-b*eventBatch))
					if o.err == nil && er.Version != version+size {
						o.err = fmt.Errorf("version %d after %d, want +%d", er.Version, version, size)
					}
					tl.ops = append(tl.ops, o)
					if o.failed() {
						tl.fail("events %s batch %d: status %d: %v %s", cr.ID, b, status, o.err, trim(out))
						ok = false
						break
					}
					version = er.Version
					if (b+1)%getEvery == 0 || b == len(st.batches)-1 {
						status, out, _, err := t.send(http.MethodGet, path, nil)
						tl.other++
						if err != nil || status != http.StatusOK {
							tl.fail("get %s: status %d: %v", cr.ID, status, err)
							ok = false
							break
						}
						final = out
					}
					if keep && b == len(st.batches)-1 {
						kept[c] = append(kept[c], recovered{id: cr.ID, version: er.Version, value: er.Value})
					}
				}
				if keep {
					continue
				}
				status, _, _, err = t.send(http.MethodDelete, path, nil)
				tl.other++
				if err != nil || status != http.StatusNoContent && status != http.StatusOK {
					tl.fail("delete %s: status %d: %v", cr.ID, status, err)
				}
				if ok {
					tl.done = append(tl.done, sessionRun{stream: si, final: final})
				}
			}
		}(c)
	}
	wg.Wait()
	out := &sessionTally{}
	var rec []recovered
	for c := range tallies {
		out.add(&tallies[c])
		rec = append(rec, kept[c]...)
	}
	return out, rec
}

// add folds another tally into s.
func (s *sessionTally) add(o *sessionTally) {
	s.ops = append(s.ops, o.ops...)
	s.other += o.other
	s.failed += o.failed
	s.done = append(s.done, o.done...)
	for _, f := range o.failures {
		if len(s.failures) < 5 {
			s.failures = append(s.failures, f)
		}
	}
}

// recovered is a filled session's pre-restart (version, value).
type recovered struct {
	id      string
	version uint64
	value   float64
}

// checkRecovered GETs every filled session and compares it with its
// pre-restart (version, value).
func checkRecovered(t *target, want []recovered) error {
	for _, r := range want {
		status, body, _, err := t.send(http.MethodGet, "/v1/sessions/"+r.id, nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("recovered session %s: status %d: %v", r.id, status, err)
		}
		var got server.SessionResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Version != r.version || got.Value != r.value {
			return fmt.Errorf("recovered session %s serves (%d, %v), before restart (%d, %v)",
				r.id, got.Version, got.Value, r.version, r.value)
		}
	}
	return nil
}

func trim(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return strconv.Quote(string(b))
}
