package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/registry"
	"github.com/svgic/svgic/internal/server"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/store"
	"github.com/svgic/svgic/internal/telemetry"
)

// span is one timed interval at a layer seam. Start and End are
// nanoseconds since the recorder's epoch; Req is the request id the client
// sent (0 for work no request caused, such as the store's writers).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Req     uint64 `json:"req,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Kind    string `json:"kind,omitempty"`    // server spans: the route
	Session string `json:"session,omitempty"` // session and store spans
	Status  int    `json:"status,omitempty"`  // server spans
	Count   int    `json:"count,omitempty"`   // core.round: CSF iterations
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory while on.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) id() uint64 { return r.nextID.Add(1) }

// add stores s, assigning an id when it has none, and returns the id.
func (r *recorder) add(s span) uint64 {
	if s.ID == 0 {
		s.ID = r.id()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// timed records fn as a span when the recorder is on.
func (r *recorder) timed(s span, fn func()) uint64 {
	if !r.on.Load() {
		fn()
		return 0
	}
	s.Start = r.now()
	fn()
	s.End = r.now()
	return r.add(s)
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// reqKey is the context key under which a request carries its reqCtx
// down through server, engine and solver.
type reqKey struct{}

type reqCtx struct {
	req  uint64 // the client's request id
	span uint64 // the enclosing span, parent of spans started below it
}

func reqFrom(ctx context.Context) reqCtx {
	rc, _ := ctx.Value(reqKey{}).(reqCtx)
	return rc
}

// tracedHandler wraps *server.Server: one "server" span per request that
// carries a request id, with the id placed in the request context, plus a
// "server.encode" child span from the ResponseWriter wrapper. active maps a
// session id to the request working on it, for the persister's spans.
type tracedHandler struct {
	next   http.Handler
	rec    *recorder
	active *sync.Map // session id -> reqCtx
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
	if req == 0 || !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	rc := reqCtx{req: req, span: h.rec.id()}
	kind, sid := route(r)
	if sid != "" {
		h.active.Store(sid, rc)
		defer h.active.Delete(sid)
	}
	tw := &tracedWriter{ResponseWriter: w, rec: h.rec, status: http.StatusOK}
	body := &tracedBody{ReadCloser: r.Body, rec: h.rec}
	r.Body = body
	start := h.rec.now()
	h.next.ServeHTTP(tw, r.WithContext(context.WithValue(r.Context(), reqKey{}, rc)))
	end := h.rec.now()
	if body.first > 0 {
		h.rec.add(span{Parent: rc.span, Req: req, Name: "server.body", Start: body.first, End: body.last, Session: sid})
	}
	if tw.first > 0 {
		h.rec.add(span{Parent: rc.span, Req: req, Name: "server.encode", Start: tw.first, End: tw.last, Session: sid})
	}
	h.rec.add(span{ID: rc.span, Req: req, Name: "server", Start: start, End: end, Kind: kind, Session: sid, Status: tw.status})
}

// route names a request's kind and, for session routes, its session id.
func route(r *http.Request) (kind, sid string) {
	p := strings.TrimPrefix(r.URL.Path, "/v1/")
	switch {
	case p == "solve":
		return "solve", ""
	case p == "sessions":
		return "create", ""
	case strings.HasPrefix(p, "sessions/"):
		id, rest, _ := strings.Cut(strings.TrimPrefix(p, "sessions/"), "/")
		if rest == "events" {
			return "events", id
		}
		return strings.ToLower(r.Method), id
	}
	return p, ""
}

// tracedBody times the handler's read of the request body: from the start
// of its first Read to the end of its last. The handlers read the body only
// through core.DecodeStrict, whose trailing-content check reads again after
// the document is decoded, so the interval covers the strict decode as the
// handler runs it. The body reports EOF on a Read of its own, never with
// the last bytes: http.MaxBytesReader remembers an EOF and would answer
// that last Read without calling through.
type tracedBody struct {
	io.ReadCloser
	rec         *recorder
	first, last int64
	eof         bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	if b.first == 0 {
		b.first = b.rec.now()
	}
	if b.eof {
		b.last = b.rec.now()
		return 0, io.EOF
	}
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF && n > 0 {
		b.eof, err = true, nil
	}
	b.last = b.rec.now()
	return n, err
}

// tracedWriter times the response write: from the first WriteHeader or
// Write to the end of the last Write, which covers the JSON encoding the
// server does straight into the writer.
type tracedWriter struct {
	http.ResponseWriter
	rec         *recorder
	first, last int64
	status      int
}

func (w *tracedWriter) WriteHeader(code int) {
	if w.first == 0 {
		w.first = w.rec.now()
	}
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *tracedWriter) Write(b []byte) (int, error) {
	if w.first == 0 {
		w.first = w.rec.now()
	}
	n, err := w.ResponseWriter.Write(b)
	w.last = w.rec.now()
	return n, err
}

// tracedSolver wraps the engine's default solver: one "core.solve" span
// per component solve, parented to the request span found in the context,
// and the component kept in comps (when set) for re-timing. It forwards
// CacheKey and DecomposeSafe so the engine caches and decomposes exactly
// as it does for the bare solver.
type tracedSolver struct {
	inner core.Solver
	rec   *recorder
	comps *components
}

func (s *tracedSolver) Name() string { return s.inner.Name() }

func (s *tracedSolver) CacheKey() string { return engine.SolverKey(s.inner) }

func (s *tracedSolver) DecomposeSafe() bool {
	cs, ok := s.inner.(core.ComponentSafe)
	return ok && cs.DecomposeSafe()
}

func (s *tracedSolver) Solve(ctx context.Context, in *core.Instance) (*core.Solution, error) {
	return s.solve(ctx, in, "")
}

// solve records the span with the given kind: "" on the serving path,
// "retimed" when the solver phases are re-timed.
func (s *tracedSolver) solve(ctx context.Context, in *core.Instance, kind string) (*core.Solution, error) {
	var sol *core.Solution
	var err error
	rc := reqFrom(ctx)
	id := s.rec.timed(span{Parent: rc.span, Req: rc.req, Name: "core.solve", Kind: kind}, func() { sol, err = s.inner.Solve(ctx, in) })
	if id != 0 && err == nil && s.comps != nil {
		s.comps.add(id, rc.req, in)
	}
	return sol, err
}

// components keeps the first maxComponents instances the traced solver
// saw, for the solver-phase re-timing. The cap is far above the components
// of the replayed ops, which arrive first.
type components struct {
	mu   sync.Mutex
	list []component
}

type component struct {
	span, req uint64
	in        *core.Instance
}

const maxComponents = 1024

func (c *components) add(span, req uint64, in *core.Instance) {
	c.mu.Lock()
	if len(c.list) < maxComponents {
		c.list = append(c.list, component{span: span, req: req, in: in})
	}
	c.mu.Unlock()
}

// tracedPersister wraps the store as the session manager's Persister: one
// "session.persist" span per call, which is serving-path time (the call
// includes any backpressure from a full writer queue).
type tracedPersister struct {
	inner  session.Persister
	rec    *recorder
	active *sync.Map
}

func (p *tracedPersister) span(id string) span {
	rc, _ := p.active.Load(id)
	r, _ := rc.(reqCtx)
	return span{Parent: r.span, Req: r.req, Name: "session.persist", Session: id}
}

func (p *tracedPersister) SessionCreated(st *session.State) {
	p.rec.timed(p.span(st.ID), func() { p.inner.SessionCreated(st) })
}

func (p *tracedPersister) EventsApplied(id string, events []session.Event, from, to uint64, value float64) {
	p.rec.timed(p.span(id), func() { p.inner.EventsApplied(id, events, from, to, value) })
}

func (p *tracedPersister) ConfigAdopted(id string, conf *core.Configuration, from, to uint64, value float64) {
	p.rec.timed(p.span(id), func() { p.inner.ConfigAdopted(id, conf, from, to, value) })
}

func (p *tracedPersister) SnapshotCut(st *session.State) {
	p.rec.timed(p.span(st.ID), func() { p.inner.SnapshotCut(st) })
}

func (p *tracedPersister) SessionEnded(id string, reason session.EndReason) {
	p.rec.timed(p.span(id), func() { p.inner.SessionEnded(id, reason) })
}

// tracedBackend wraps the filesystem backend: spans per Log call, and
// while recovering set, a "store.recover" span per session from its Open
// to its Close (the store recovers one session at a time).
type tracedBackend struct {
	store.Backend
	rec        *recorder
	recovering atomic.Bool
}

func (b *tracedBackend) Open(id string) (store.Log, error) {
	l, err := b.Backend.Open(id)
	if err != nil {
		return nil, err
	}
	return &tracedLog{Log: l, b: b, id: id, opened: b.rec.now(), recovering: b.recovering.Load()}, nil
}

type tracedLog struct {
	store.Log
	b          *tracedBackend
	id         string
	opened     int64
	recovering bool
}

func (l *tracedLog) span(name string) span { return span{Name: name, Session: l.id} }

func (l *tracedLog) Append(p []byte) (err error) {
	l.b.rec.timed(l.span("store.append"), func() { err = l.Log.Append(p) })
	return err
}

func (l *tracedLog) Sync() (err error) {
	l.b.rec.timed(l.span("store.fsync"), func() { err = l.Log.Sync() })
	return err
}

func (l *tracedLog) WriteSnapshot(p []byte) (err error) {
	l.b.rec.timed(l.span("store.snapshot"), func() { err = l.Log.WriteSnapshot(p) })
	return err
}

func (l *tracedLog) ReadWAL() (recs [][]byte, c *store.Corruption, err error) {
	l.b.rec.timed(l.span("store.read"), func() { recs, c, err = l.Log.ReadWAL() })
	return recs, c, err
}

func (l *tracedLog) ReadSnapshot() (p []byte, err error) {
	l.b.rec.timed(l.span("store.read"), func() { p, err = l.Log.ReadSnapshot() })
	return p, err
}

func (l *tracedLog) Close() error {
	err := l.Log.Close()
	if l.recovering && l.b.rec.on.Load() {
		l.b.rec.add(span{Name: "store.recover", Session: l.id, Start: l.opened, End: l.b.rec.now()})
	}
	return err
}

// stack is the in-process serving stack, assembled with the constructors
// and options cmd/svgicd's newApp uses at its defaults, optionally with the
// tracing wrappers at its seams.
type stack struct {
	eng     *engine.Engine
	st      *store.Store
	mgr     *session.Manager
	srv     *server.Server
	hs      *http.Server
	served  chan error
	target  *target
	backend *tracedBackend // nil when untraced or without a store
	comps   *components
	active  *sync.Map
}

func newStack(durable bool, dataDir string, rec *recorder) (*stack, error) {
	s := &stack{comps: &components{}, active: &sync.Map{}}
	tel := telemetry.NewTracker(telemetry.TrackerOptions{})
	newSolver := defaultSolver
	if rec != nil {
		newSolver = func() core.Solver { return &tracedSolver{inner: defaultSolver(), rec: rec, comps: s.comps} }
	}
	s.eng = engine.New(engine.Options{
		CacheSize: engine.DefaultCacheSize,
		NewSolver: newSolver,
		SolveObserver: func(algo string, wall time.Duration) {
			tel.Record("algo:"+algo, wall)
		},
	})
	var persister session.Persister
	if durable {
		fsb, err := store.NewFS(dataDir)
		if err != nil {
			s.eng.Close()
			return nil, err
		}
		var backend store.Backend = fsb
		if rec != nil {
			s.backend = &tracedBackend{Backend: fsb, rec: rec}
			backend = s.backend
		}
		if s.st, err = store.Open(store.Options{Backend: backend, Sync: store.SyncAlways, SyncInterval: store.DefaultSyncInterval}); err != nil {
			s.eng.Close()
			return nil, err
		}
		persister = s.st
		if rec != nil {
			persister = &tracedPersister{inner: s.st, rec: rec, active: s.active}
		}
	}
	var err error
	s.mgr, err = session.NewManager(session.Options{
		Engine:         s.eng,
		TTL:            10 * time.Minute,
		RepairMargin:   session.DefaultRepairMargin,
		Persister:      persister,
		SnapshotEvery:  session.DefaultSnapshotEvery,
		RepairObserver: func(d time.Duration) { tel.Record("repair", d) },
	})
	if err != nil {
		s.closeStore()
		return nil, err
	}
	if s.backend != nil {
		s.backend.recovering.Store(true)
	}
	s.srv, err = server.New(server.Options{
		Engine:         s.eng,
		DefaultAlgo:    "avgd",
		DefaultParams:  registry.Params{},
		DefaultTimeout: server.DefaultTimeout,
		MaxTimeout:     server.DefaultMaxTimeout,
		MaxBatch:       server.DefaultMaxBatch,
		Sessions:       s.mgr,
		Store:          s.st,
		Telemetry:      tel,
		DegradeAlgo:    "avgd",
	})
	if s.backend != nil {
		s.backend.recovering.Store(false)
	}
	if err != nil {
		s.mgr.Close()
		s.closeStore()
		return nil, err
	}
	var h http.Handler = s.srv
	if rec != nil {
		h = &tracedHandler{next: s.srv, rec: rec, active: s.active}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Close()
		s.closeStore()
		return nil, err
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.target = &target{base: "http://" + ln.Addr().String(), hc: newClient(), traced: rec != nil}
	return s, nil
}

func (s *stack) closeStore() {
	if s.st != nil {
		s.st.Close()
	}
	s.eng.Close()
}

// close drains the stack in svgicd's shutdown order.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.srv.Shutdown(ctx))
	s.mgr.Close()
	s.closeStore()
	return err
}
