package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/lp"
	"github.com/svgic/svgic/internal/session"
)

// replayOps bounds the replays of a solve workload to the ops with index
// below it, so every per-layer count covers the same fixed work.
const replayOps = 256

// runTraced replays the workload against the in-process stack: first
// untraced, for the client p50 the tracing overhead is judged against,
// then with spans at every seam, each pass for half of the run's seconds.
// After the traced HTTP pass the layers a request wrapper cannot see into
// are replayed and timed directly.
func runTraced(cfg runConfig) (*result, error) {
	runtime.GOMAXPROCS(2) // what the child gets
	in, err := generate(cfg.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.note("seed=%d inputs sha256=%s", cfg.seed, in.digest)
	dir, err := cfg.tempDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, ds, err := newWorkload(cfg, in, dir)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(dir, "data")

	// Untraced pass.
	if ds != nil {
		if err := ds.reset(); err != nil {
			return nil, err
		}
	}
	s, err := newStack(ds != nil, dataDir, nil)
	if err != nil {
		return nil, err
	}
	w.setup(s.target, res)
	w.afterSetup(s.target, res)
	pass := cfg.seconds / 2
	untraced := p50(w.timed(s.target, time.Now().Add(pass)))
	if err := s.close(); err != nil {
		return nil, err
	}

	// Traced pass: recovery, then the timed HTTP pass, then the replays.
	if ds != nil {
		if err := ds.reset(); err != nil {
			return nil, err
		}
	}
	rec := newRecorder()
	rec.on.Store(true)
	s, err = newStack(ds != nil, dataDir, rec)
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	recovered := rec.now()
	w.setup(s.target, res)
	w.afterSetup(s.target, res)
	rec.on.Store(true)
	before := s.srv.StatsSnapshot().Engine
	passStart := rec.now()
	ops := w.timed(s.target, time.Now().Add(pass))
	passEnd := rec.now()
	after := s.srv.StatsSnapshot().Engine
	traced := p50(ops)

	chk := newResult()
	w.check(chk)
	res.Attempted, res.Failed = chk.Attempted, chk.Failed
	res.problems = append(res.problems, chk.problems...)

	tr := &traceRun{rec: rec, s: s, in: in, ops: ops, durable: ds != nil, hot: cfg.name == "hot-solve",
		recovered: recovered, passStart: passStart, passEnd: passEnd,
		passHits: after.CacheHits - before.CacheHits, passMisses: after.CacheMisses - before.CacheMisses}
	if err := tr.replay(); err != nil {
		s.close()
		return nil, err
	}
	rec.on.Store(false)
	if err := s.close(); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.name, cfg.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	res.note("%d spans written to %s", len(rec.spans), path)

	tr.metrics(res)
	res.set("trace.client_p50_ms", "ms", traced)
	res.set("trace.untraced_p50_ms", "ms", untraced)
	res.set("trace.overhead", "%", (traced/untraced-1)*100)
	return res, nil
}

// p50 is the nearest-rank median latency of ops in ms, failed ops
// counting as infinitely slow.
func p50(ops []op) float64 {
	ms := make([]float64, len(ops))
	for i := range ops {
		ms[i] = float64(ops[i].lat) / 1e6
		if ops[i].failed() {
			ms[i] = math.Inf(1)
		}
	}
	slices.Sort(ms)
	return rank(ms, 0.5)
}

// traceRun holds one traced run's state between the HTTP pass, the
// replays and the metric computation.
type traceRun struct {
	rec     *recorder
	s       *stack
	in      *inputs
	ops     []op
	durable bool
	hot     bool

	recovered, passStart, passEnd int64 // recorder times

	passHits, passMisses uint64 // engine cache counters of /v1/stats over the traced pass

	replayed   map[uint64]bool          // request ids of the ops the replays cover
	engineSelf map[uint64]time.Duration // op request id -> replayed engine self time
	storeDelta [2]uint64                // WAL bytes and fsyncs over the session replay
	events     uint64                   // events in the session replay
}

// replayOrder is the ops the replays cover: for solve workloads those with
// index below replayOps, for durable-session every event batch.
func (tr *traceRun) replayOrder() []op {
	var out []op
	for _, o := range tr.ops {
		if !o.failed() && (tr.durable || o.idx < replayOps) {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (tr *traceRun) replay() error {
	ops := tr.replayOrder()
	tr.replayed = map[uint64]bool{}
	for _, o := range ops {
		tr.replayed[o.id] = true
	}
	if tr.durable {
		if err := tr.replaySessions(); err != nil {
			return err
		}
		return tr.retimeSolver(nil)
	}
	if err := tr.replayEngine(ops); err != nil {
		return err
	}
	retimed := map[uint64]bool{}
	for _, o := range ops {
		if o.idx < retimeOps {
			retimed[o.id] = true
		}
	}
	return tr.retimeSolver(retimed)
}

// replayEngine times engine.Solve directly on a fresh engine built like
// the stack's (traced solver included), with clients concurrent callers:
// first every distinct replayed instance once (cache misses), then every
// replayed op (cache hits). Each op's engine time for server.self_ms is
// what its HTTP request did: the miss on cold-solve, the hit on hot-solve.
func (tr *traceRun) replayEngine(ops []op) error {
	eng := engine.New(engine.Options{
		CacheSize: engine.DefaultCacheSize,
		NewSolver: func() core.Solver { return &tracedSolver{inner: defaultSolver(), rec: tr.rec} },
	})
	defer eng.Close()
	type call struct {
		req  uint64
		in   *core.Instance
		kind string
	}
	var misses, hits []call
	seen := map[int]bool{}
	for _, o := range ops {
		g := o.idx % len(tr.in.timed)
		in, err := instanceOf(tr.in.timed[g])
		if err != nil {
			return err
		}
		if !seen[g] {
			seen[g] = true
			misses = append(misses, call{req: o.id, in: in, kind: "miss"})
		}
		hits = append(hits, call{req: o.id, in: in, kind: "hit"})
	}
	tr.engineSelf = map[uint64]time.Duration{}
	cold := len(seen) == len(ops)
	for _, pass := range [][]call{misses, hits} {
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for c := range errs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(pass); i = int(next.Add(1) - 1) {
					k := pass[i]
					rc := reqCtx{req: k.req, span: tr.rec.id()}
					ctx := context.WithValue(context.Background(), reqKey{}, rc)
					start := tr.rec.now()
					if _, errs[c] = eng.Solve(ctx, k.in); errs[c] != nil {
						return
					}
					tr.rec.add(span{ID: rc.span, Req: k.req, Name: "engine.solve", Kind: k.kind, Start: start, End: tr.rec.now()})
				}
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("engine replay: %w", err)
		}
	}
	tree := newTree(tr.rec.spans)
	for _, sp := range tree.named("engine.solve") {
		if (sp.Kind == "miss") == cold {
			tr.engineSelf[sp.Req] = tree.self(sp)
		}
	}
	return nil
}

// The solver re-timing covers every component of the solve requests with
// op index below retimeOps (60 components on cold-solve), so every run
// re-times the same ones, each retimeRounds times. Back-to-back timings of
// one component on a shared 2-vCPU host differ by a quarter or more, now
// and then by several times; the fastest of five is what the metrics use.
const (
	retimeOps    = 40
	retimeRounds = 5
)

// retimeSolver re-times the components that the requests in reqs solved in
// the traced HTTP pass (with reqs nil, every component a request of the
// pass solved: the durable-session creates). Each round times every
// component whole, through the traced solver wrapper (a "core.solve" span
// of kind "retimed"), then phase by phase through the calls the AVG-D
// solver makes with core.AVGDOptions{} (what registry avgd without
// parameters equals): the LP relaxation, CSF rounding and the final
// Evaluate. A phase and its whole are timed back to back, at the same host
// speed.
func (tr *traceRun) retimeSolver(reqs map[uint64]bool) error {
	var comps []component
	for _, c := range tr.s.comps.list {
		if c.req != 0 && (reqs == nil || reqs[c.req]) {
			comps = append(comps, c)
		}
	}
	sort.SliceStable(comps, func(i, j int) bool { return comps[i].req < comps[j].req })
	whole := &tracedSolver{inner: defaultSolver(), rec: tr.rec}
	for range retimeRounds {
		for _, c := range comps {
			ctx := context.WithValue(context.Background(), reqKey{}, reqCtx{req: c.req, span: c.span})
			if _, err := whole.solve(ctx, c.in, "retimed"); err != nil {
				return err
			}
			var f *core.Factors
			var err error
			tr.rec.timed(span{Parent: c.span, Req: c.req, Name: "lp.relax"}, func() {
				f, err = core.SolveRelaxation(c.in, core.LPStructured, lp.RelaxOptions{})
			})
			if err != nil {
				return err
			}
			var conf *core.Configuration
			var st core.RoundingStats
			sp := span{Parent: c.span, Req: c.req, Name: "core.round", Start: tr.rec.now()}
			conf, st = core.RoundAVGD(c.in, f, core.AVGDOptions{})
			sp.End, sp.Count = tr.rec.now(), st.Iterations
			tr.rec.add(sp)
			tr.rec.timed(span{Parent: c.span, Req: c.req, Name: "core.evaluate"}, func() { core.Evaluate(c.in, conf) })
		}
	}
	return nil
}

// replaySessions replays every timed stream through the stack's manager
// directly — CreateWith, Apply per batch, Snapshot every getEvery batches
// (what GET does), Delete — and reads the store's byte and fsync counters
// over exactly that work.
func (tr *traceRun) replaySessions() error {
	tr.s.st.Barrier() // the HTTP pass's writes land before the baseline
	st0 := tr.s.srv.StatsSnapshot().Store
	for _, stream := range tr.in.sessions {
		in, events, err := decodeStream(stream)
		if err != nil {
			return err
		}
		var snap session.Snapshot
		tr.rec.timed(span{Name: "session.create"}, func() {
			snap, _, err = tr.s.mgr.CreateWith(context.Background(), in, session.CreateSpec{})
		})
		if err != nil {
			return fmt.Errorf("session replay create: %w", err)
		}
		for b := range stream.batches {
			batch := events[b*eventBatch : min((b+1)*eventBatch, len(events))]
			sp := span{ID: tr.rec.id(), Name: "session.apply", Session: snap.ID}
			tr.s.active.Store(snap.ID, reqCtx{span: sp.ID})
			sp.Start = tr.rec.now()
			_, err := tr.s.mgr.Apply(snap.ID, batch)
			sp.End = tr.rec.now()
			tr.s.active.Delete(snap.ID)
			if err != nil {
				return fmt.Errorf("session replay apply: %w", err)
			}
			tr.rec.add(sp)
			if (b+1)%getEvery == 0 || b == len(stream.batches)-1 {
				tr.rec.timed(span{Name: "session.snapshot", Session: snap.ID}, func() { _, err = tr.s.mgr.Snapshot(snap.ID) })
				if err != nil {
					return err
				}
			}
		}
		tr.events += uint64(len(events))
		if err := tr.s.mgr.Delete(snap.ID); err != nil {
			return err
		}
	}
	tr.s.st.Barrier()
	st1 := tr.s.srv.StatsSnapshot().Store
	tr.storeDelta = [2]uint64{st1.AppendedBytes - st0.AppendedBytes, st1.Syncs - st0.Syncs}
	return nil
}

// metrics computes every per-layer metric from the spans. Layers a
// workload does not exercise report 0.
func (tr *traceRun) metrics(res *result) {
	tree := newTree(tr.rec.spans)
	inPass := func(sp *span) bool { return sp.Start >= tr.passStart && sp.Start < tr.passEnd }
	opKind := "solve"
	if tr.durable {
		opKind = "events"
	}

	// server: per op request of the timed pass, its body decode and
	// response encode child spans, and its self time: the request span
	// minus the union of its in-request child spans (body, solver,
	// persist, encode).
	var decode, encode, self []float64
	var failed float64
	for _, sp := range tree.named("server") {
		if sp.Status >= 300 {
			failed++
		}
		if sp.Kind != opKind || !inPass(sp) {
			continue
		}
		for _, c := range tree.children[sp.ID] {
			switch c.Name {
			case "server.body":
				decode = append(decode, ms(c.dur()))
			case "server.encode":
				encode = append(encode, ms(c.dur()))
			}
		}
		self = append(self, ms(tree.self(sp)))
	}
	res.set("server.decode_ms", "ms", medianOr0(decode))
	res.set("server.encode_ms", "ms", medianOr0(encode))
	res.set("server.self_ms", "ms", medianOr0(self))
	res.set("server.failed", "count", failed)

	// engine: hit ratio and components over a fixed set of requests: the
	// replayed solves, or the first 2×streams session creates in
	// request-id order (each client's first cycle of streams misses, its
	// second hits).
	var reqs []*span
	for _, sp := range tree.named("server") {
		if tr.replayed[sp.Req] && sp.Kind == "solve" || tr.durable && sp.Kind == "create" {
			reqs = append(reqs, sp)
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Req < reqs[j].Req })
	if tr.durable {
		reqs = reqs[:min(2*streams, len(reqs))]
	}
	// A request with no solver span under it was a cache hit.
	solvesUnder := func(sp *span) []*span {
		var out []*span
		for _, c := range tree.children[sp.ID] {
			if c.Name == "core.solve" {
				out = append(out, c)
			}
		}
		return out
	}
	var hitN, missN, comps float64
	var fixedSolves []*span // solver spans under the fixed request set
	for _, sp := range reqs {
		if under := solvesUnder(sp); len(under) == 0 {
			hitN++
		} else {
			missN++
			comps += float64(len(under))
			fixedSolves = append(fixedSolves, under...)
		}
	}
	res.set("engine.hit_ratio", "ratio", hitN/math.Max(hitN+missN, 1))
	res.set("engine.components_per_solve", "count", comps/math.Max(missN, 1))
	// Over every request of the traced pass, that rule must agree with the
	// engine's own cache counters in /v1/stats.
	var passHits, passMisses uint64
	for _, sp := range tree.named("server") {
		if !inPass(sp) || sp.Status >= 300 || sp.Kind != "solve" && sp.Kind != "create" {
			continue
		}
		if len(solvesUnder(sp)) == 0 {
			passHits++
		} else {
			passMisses++
		}
	}
	if passHits != tr.passHits || passMisses != tr.passMisses {
		res.problem("traced pass: spans show %d cache hits and %d misses, /v1/stats %d and %d",
			passHits, passMisses, tr.passHits, tr.passMisses)
	}
	var hit, wait []float64
	for _, sp := range tree.named("engine.solve") {
		if sp.Kind == "hit" {
			hit = append(hit, ms(sp.dur()))
		}
	}
	for _, d := range tr.engineSelf {
		wait = append(wait, ms(d))
	}
	res.set("engine.hit_ms", "ms", medianOr0(hit))
	res.set("engine.wait_ms", "ms", medianOr0(wait))

	// core and lp: core.solve_ms and the phases are the back-to-back
	// re-timings of retimeSolver. Every hot-solve request of the timed pass
	// must be served from the cache.
	if tr.hot {
		for _, sp := range tree.named("core.solve") {
			if p := tree.byID[sp.Parent]; p != nil && p.Name == "server" && inPass(p) {
				res.problem("hot-solve request %d ran the solver", p.Req)
				break
			}
		}
	}
	retimed := func(sp *span) bool { return sp.Kind == "retimed" }
	res.set("core.solve_ms", "ms", medianFastest(tree.named("core.solve"), retimed))
	if len(fixedSolves) > 0 {
		res.note("core.solve in the traced pass, same requests: median %.4gms", medianMs(fixedSolves, nil))
	}
	wholes, relaxes := fastest(tree.named("core.solve"), retimed), fastest(tree.named("lp.relax"), nil)
	var share []float64
	for c, d := range relaxes {
		share = append(share, float64(d)/float64(wholes[c]))
	}
	if len(share) > 0 {
		q := quartiles(share)
		res.note("lp.relax over its component's core.solve, re-timed: median %.3f, quartiles %.3f-%.3f, %d components", q[1], q[0], q[2], len(share))
	}
	res.set("lp.relax_ms", "ms", medianFastest(tree.named("lp.relax"), nil))
	res.set("core.round_ms", "ms", medianFastest(tree.named("core.round"), nil))
	res.set("core.evaluate_ms", "ms", medianFastest(tree.named("core.evaluate"), nil))
	var iters float64
	rounds := tree.named("core.round")
	for _, sp := range rounds {
		iters += float64(sp.Count)
	}
	res.set("core.round_iterations", "count", iters/math.Max(float64(len(rounds)), 1))

	// session
	res.set("session.apply_ms", "ms", medianMs(tree.named("session.apply"), nil))
	res.set("session.create_ms", "ms", medianMs(tree.named("session.create"), nil))
	res.set("session.snapshot_ms", "ms", medianMs(tree.named("session.snapshot"), nil))
	res.set("session.persist_ms", "ms", medianMs(tree.named("session.persist"), func(sp *span) bool {
		p := tree.byID[sp.Parent]
		return inPass(sp) && p != nil && p.Name == "server"
	}))

	// store
	res.set("store.append_ms", "ms", medianMs(tree.named("store.append"), inPass))
	res.set("store.fsync_ms", "ms", medianMs(tree.named("store.fsync"), inPass))
	res.set("store.snapshot_ms", "ms", medianMs(tree.named("store.snapshot"), inPass))
	reads := map[string]time.Duration{}
	for _, sp := range tree.named("store.read") {
		if sp.Start < tr.recovered {
			reads[sp.Session] += sp.dur()
		}
	}
	var perSession []float64
	for _, d := range reads {
		perSession = append(perSession, ms(d))
	}
	res.set("store.read_ms", "ms", medianOr0(perSession))
	res.set("store.recover_ms", "ms", medianMs(tree.named("store.recover"), nil))
	var bpe, fpe, ioErrs float64
	if tr.events > 0 {
		bpe = float64(tr.storeDelta[0]) / float64(tr.events)
		fpe = float64(tr.storeDelta[1]) / float64(tr.events)
	}
	if st := tr.s.srv.StatsSnapshot().Store; st != nil {
		ioErrs = float64(st.IOErrors)
	}
	res.set("store.bytes_per_event", "bytes", bpe)
	res.set("store.fsyncs_per_event", "count", fpe)
	res.set("store.io_errors", "count", ioErrs)
}

// tree indexes spans by id, name and parent.
type tree struct {
	byID     map[uint64]*span
	byName   map[string][]*span
	children map[uint64][]*span
}

func newTree(spans []span) *tree {
	t := &tree{byID: map[uint64]*span{}, byName: map[string][]*span{}, children: map[uint64][]*span{}}
	for i := range spans {
		sp := &spans[i]
		t.byID[sp.ID] = sp
		t.byName[sp.Name] = append(t.byName[sp.Name], sp)
		if sp.Parent != 0 {
			t.children[sp.Parent] = append(t.children[sp.Parent], sp)
		}
	}
	return t
}

func (t *tree) named(name string) []*span { return t.byName[name] }

// self is a span's duration minus the union of its children's intervals
// (clipped to the span).
func (t *tree) self(sp *span) time.Duration {
	var iv [][2]int64
	for _, c := range t.children[sp.ID] {
		s, e := max(c.Start, sp.Start), min(c.End, sp.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64
	for _, x := range iv {
		s := max(x[0], end)
		if x[1] > s {
			covered += x[1] - s
			end = x[1]
		}
	}
	return sp.dur() - time.Duration(covered)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// medianMs is the median duration in ms of the spans keep accepts (all
// when keep is nil), or 0 when there are none.
func medianMs(spans []*span, keep func(*span) bool) float64 {
	var v []float64
	for _, sp := range spans {
		if keep == nil || keep(sp) {
			v = append(v, ms(sp.dur()))
		}
	}
	return medianOr0(v)
}

// fastest maps each parent to the shortest of its spans that keep accepts
// (all when keep is nil): for the re-timed solver spans, a component's
// fastest round.
func fastest(spans []*span, keep func(*span) bool) map[uint64]time.Duration {
	out := map[uint64]time.Duration{}
	for _, sp := range spans {
		if keep != nil && !keep(sp) {
			continue
		}
		if d, ok := out[sp.Parent]; !ok || sp.dur() < d {
			out[sp.Parent] = sp.dur()
		}
	}
	return out
}

// medianFastest is the median over parents of fastest, in ms.
func medianFastest(spans []*span, keep func(*span) bool) float64 {
	var v []float64
	for _, d := range fastest(spans, keep) {
		v = append(v, ms(d))
	}
	return medianOr0(v)
}

func medianOr0(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}
