package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"github.com/svgic/svgic"
	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/registry"
	"github.com/svgic/svgic/internal/server"
	"github.com/svgic/svgic/internal/session"
)

// coldSolve: every timed request is a group the server has never seen or
// has long evicted. The timed pool cycles when a pass exhausts it; it is 8
// times the default 256-entry result cache, so a cycled group is always a
// miss.
type coldSolve struct {
	in   *inputs
	done []op // every timed pass's ops; each pass starts at the pool's head
}

func (w *coldSolve) setup(t *target, res *result) {
	warm := runSolves(t, func(i int) []byte { return w.in.warm[i] }, len(w.in.warm), time.Time{})
	checkStatuses("warm-up", warm, res)
}

func (w *coldSolve) afterSetup(*target, *result) {}

func (w *coldSolve) body(i int) []byte { return w.in.timed[i%len(w.in.timed)] }

func (w *coldSolve) timed(t *target, deadline time.Time) []op {
	ops := runSolves(t, w.body, math.MaxInt, deadline)
	w.done = append(w.done, ops...)
	return ops
}

func (w *coldSolve) check(res *result) {
	var q float64
	var nq int
	counted := make([]bool, qualityFirst) // each pass sends the pool's head again
	for i := range w.done {
		o := &w.done[i]
		in, err := instanceOf(w.body(o.idx))
		if err != nil {
			res.problem("decoding timed input %d: %v", o.idx, err)
			continue
		}
		if resp := checkSolveOp(o, in, nil, res); resp != nil && o.idx < qualityFirst && !counted[o.idx] {
			counted[o.idx] = true
			q += quality(in, resp.Assignment)
			nq++
		}
	}
	res.Attempted = len(w.done)
	if nq != qualityFirst {
		res.problem("quality needs the first %d timed requests, %d succeeded", qualityFirst, nq)
	}
	res.set("quality", "ratio", q/float64(max(nq, 1)))
}

// checkSolveOp runs checkOp on one timed op, counting a failure into res;
// it returns the decoded response when the op passed.
func checkSolveOp(o *op, in *core.Instance, want *server.SolveResponse, res *result) *server.SolveResponse {
	resp, err := checkOp(o, in, want)
	if err != nil {
		res.Failed++
		if res.Failed <= 5 {
			res.problem("op %d: %v", o.idx, err)
		}
	}
	return resp
}

// checkOp checks one solve op: its status, then its response.
func checkOp(o *op, in *core.Instance, want *server.SolveResponse) (*server.SolveResponse, error) {
	if o.failed() {
		return nil, fmt.Errorf("status %d: %v %s", o.status, o.err, trim(o.body))
	}
	return checkSolve(in, o.body, want)
}

func checkStatuses(phase string, ops []op, res *result) {
	for i := range ops {
		if ops[i].failed() {
			res.problem("%s op %d: status %d: %v", phase, ops[i].idx, ops[i].status, ops[i].err)
			return
		}
	}
}

// hotSolve cycles hotGroups groups that setup solved once, so every timed
// request is a cache hit.
type hotSolve struct {
	in   *inputs
	ins  []*core.Instance        // the groups, decoded once
	want []*server.SolveResponse // the first launch's setup solves
	done []op                    // every timed pass's ops
}

func (w *hotSolve) body(i int) []byte { return w.in.timed[i%len(w.in.timed)] }

func (w *hotSolve) setup(t *target, res *result) {
	fill := runSolves(t, w.body, len(w.in.timed), time.Time{})
	first := w.want == nil
	if first {
		w.want = make([]*server.SolveResponse, len(w.in.timed))
		for _, b := range w.in.timed {
			in, err := instanceOf(b)
			if err != nil {
				res.problem("decoding hot group: %v", err)
				return
			}
			w.ins = append(w.ins, in)
		}
	}
	for i := range fill {
		o := &fill[i]
		resp, err := checkOp(o, w.ins[o.idx], w.want[o.idx])
		if err != nil {
			res.problem("cache fill op %d: %v", o.idx, err)
		} else if first {
			w.want[o.idx] = resp
		}
	}
	checkStatuses("warm-up", runSolves(t, w.body, hotWarm, time.Time{}), res)
}

func (w *hotSolve) afterSetup(*target, *result) {}

func (w *hotSolve) timed(t *target, deadline time.Time) []op {
	ops := runSolves(t, w.body, math.MaxInt, deadline)
	w.done = append(w.done, ops...)
	return ops
}

func (w *hotSolve) check(res *result) {
	for i := range w.done {
		o := &w.done[i]
		g := o.idx % len(w.ins)
		checkSolveOp(o, w.ins[g], w.want[g], res)
	}
	res.Attempted = len(w.done)
	var q float64
	for i, want := range w.want {
		if want == nil {
			res.problem("hot group %d has no setup solve", i)
			continue
		}
		q += quality(w.ins[i], want.Assignment)
	}
	res.set("quality", "ratio", q/float64(len(w.want)))
}

// durableSession runs whole session lifecycles against svgicd with a
// durable store under fsync always, after a fill that leaves fillSessions
// sessions in the WAL for every timed launch to recover.
type durableSession struct {
	in      *inputs
	dataDir string // the -data-dir of every launch
	fillDir string // the filled data dir, copied to dataDir before each launch
	filled  []recovered
	replays []replayed
	tally   sessionTally // every timed pass
}

// replayed is the offline replay of one timed stream.
type replayed struct {
	value   float64
	assign  [][]int
	quality float64
}

// prepare computes the offline replays, fills a data dir through the
// svgicd under test and keeps a pristine copy of it in fillDir: recovery
// re-baselines every replayed session, so each launch starts from a fresh
// copy (see reset). None of this is part of any timed interval.
func (w *durableSession) prepare(bin string, flags []string) error {
	var err error
	if w.replays, err = replayStreams(w.in.sessions); err != nil {
		return err
	}
	c, err := launch(bin, flags)
	if err != nil {
		return err
	}
	tl, filled := runSessions(&target{base: c.base, hc: newClient()}, w.in.fill, fillSessions/clients, time.Time{}, true)
	if err := c.stop(); err != nil {
		return fmt.Errorf("stopping the fill svgicd: %w", err)
	}
	if tl.failed > 0 || len(filled) != fillSessions {
		return fmt.Errorf("durable fill: %d failures, %d/%d sessions: %v", tl.failed, len(filled), fillSessions, tl.failures)
	}
	w.filled = filled
	return os.Rename(w.dataDir, w.fillDir)
}

// reset replaces the data dir with a fresh copy of the filled one, then
// flushes the file systems, so that writing back the removal and the copy
// does not fall into the next launch's setup.
func (w *durableSession) reset() error {
	if err := os.RemoveAll(w.dataDir); err != nil {
		return err
	}
	err := filepath.WalkDir(w.fillDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(w.fillDir, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(w.dataDir, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, b, 0o644)
	})
	syscall.Sync()
	return err
}

// replayStreams replays every stream offline the way verifyAgainstReplay in
// cmd/svgicd/crash.go does: the initial configuration from an engine solve
// with the default solver, then the events through
// svgic.NewDynamicSession and svgic.ReplaySessionEvents.
func replayStreams(sts []stream) ([]replayed, error) {
	eng := engine.New(engine.Options{Workers: clients, NewSolver: defaultSolver})
	defer eng.Close()
	out := make([]replayed, len(sts))
	for i, st := range sts {
		// Replay what the server decoded, not the generator's values: the
		// wire form fixes the edge order the floating-point sums follow.
		in, events, err := decodeStream(st)
		if err != nil {
			return nil, err
		}
		sol, err := eng.Solve(context.Background(), in)
		if err != nil {
			return nil, err
		}
		ds, err := svgic.NewDynamicSession(in, sol.Config, 0)
		if err != nil {
			return nil, err
		}
		if n, err := svgic.ReplaySessionEvents(ds, events); err != nil {
			return nil, fmt.Errorf("stream %d: offline replay stopped at event %d: %w", i, n, err)
		}
		out[i] = replayed{
			value:   ds.Value(),
			assign:  ds.Config().Assign,
			quality: ds.Value() / ds.Instance().Relaxation().UpperBound(),
		}
	}
	return out, nil
}

// decodeStream decodes a stream's create and event bodies the way the
// server does.
func decodeStream(st stream) (*core.Instance, []session.Event, error) {
	var cr server.CreateSessionRequest
	if err := core.DecodeStrict(bytes.NewReader(st.create), &cr); err != nil {
		return nil, nil, err
	}
	in, err := core.InstanceFromJSON(&cr.InstanceJSON)
	if err != nil {
		return nil, nil, err
	}
	var events []session.Event
	for _, b := range st.batches {
		var er server.SessionEventsRequest
		if err := core.DecodeStrict(bytes.NewReader(b), &er); err != nil {
			return nil, nil, err
		}
		events = append(events, er.Events...)
	}
	return in, events, nil
}

// defaultSolver is svgicd's default: registry avgd without parameters.
func defaultSolver() core.Solver {
	s, err := registry.New("avgd", nil)
	if err != nil {
		panic(err) // a built-in registration; cannot fail
	}
	return s
}

func (w *durableSession) setup(t *target, res *result) {
	tl, _ := runSessions(t, w.in.warmSessions, warmSessionsPC, time.Time{}, false)
	if tl.failed > 0 {
		res.problem("warm-up: %d failures: %v", tl.failed, tl.failures)
	}
}

func (w *durableSession) afterSetup(t *target, res *result) {
	if err := checkRecovered(t, w.filled); err != nil {
		res.problem("%v", err)
	}
}

func (w *durableSession) timed(t *target, deadline time.Time) []op {
	tl, _ := runSessions(t, w.in.sessions, 0, deadline, false)
	w.tally.add(tl)
	return tl.ops
}

func (w *durableSession) check(res *result) {
	tl := &w.tally
	res.Attempted = len(tl.ops) + tl.other
	res.Failed += tl.failed
	for _, f := range tl.failures {
		res.problem("%s", f)
	}
	for _, run := range tl.done {
		var got server.SessionResponse
		want := w.replays[run.stream]
		if err := json.Unmarshal(run.final, &got); err != nil {
			res.problem("final GET: %v", err)
			continue
		}
		if got.Version != uint64(len(w.in.sessions[run.stream].events)) || got.Value != want.value || !sameAssignment(got.Assignment, want.assign) {
			res.Failed++
			res.problem("session %s (stream %d) ends at (%d, %v), offline replay (%d, %v)",
				got.ID, run.stream, got.Version, got.Value, len(w.in.sessions[run.stream].events), want.value)
		}
	}
	if len(tl.done) < streams {
		res.problem("only %d sessions completed; every stream must complete once", len(tl.done))
	}
	var q float64
	for _, r := range w.replays {
		q += r.quality
	}
	res.set("quality", "ratio", q/float64(len(w.replays)))
	res.note("%d sessions completed, %d event batches", len(tl.done), len(tl.ops))
}
