package session

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/core"
)

// recordingPersister captures every hook call, per session, in call order.
type recordedOp struct {
	kind   string // "create" | "events" | "adopt" | "snapshot" | "end"
	events []Event
	conf   *core.Configuration
	state  *State
	from   uint64
	to     uint64
	value  float64
	reason EndReason
}

type recordingPersister struct {
	mu  sync.Mutex
	ops map[string][]recordedOp
}

func newRecorder() *recordingPersister {
	return &recordingPersister{ops: make(map[string][]recordedOp)}
}

func (r *recordingPersister) add(id string, op recordedOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[id] = append(r.ops[id], op)
}

func (r *recordingPersister) SessionCreated(st *State) {
	r.add(st.ID, recordedOp{kind: "create", state: st, to: st.Version, value: st.Value})
}

func (r *recordingPersister) EventsApplied(id string, events []Event, from, to uint64, value float64) {
	r.add(id, recordedOp{kind: "events", events: events, from: from, to: to, value: value})
}

func (r *recordingPersister) ConfigAdopted(id string, conf *core.Configuration, from, to uint64, value float64) {
	r.add(id, recordedOp{kind: "adopt", conf: conf, from: from, to: to, value: value})
}

func (r *recordingPersister) SnapshotCut(st *State) {
	r.add(st.ID, recordedOp{kind: "snapshot", state: st, to: st.Version, value: st.Value})
}

func (r *recordingPersister) SessionEnded(id string, reason EndReason) {
	r.add(id, recordedOp{kind: "end", reason: reason})
}

func (r *recordingPersister) of(id string) []recordedOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recordedOp(nil), r.ops[id]...)
}

// TestPersisterOrderAndPrefix: the persister sees creation first, then
// exactly the APPLIED event prefixes (a partial batch logs only what
// applied), with contiguous version ranges throughout.
func TestPersisterOrderAndPrefix(t *testing.T) {
	rec := newRecorder()
	m, _ := newTestManager(t, Options{Persister: rec, SnapshotEvery: -1})
	in := testInstance(31)
	snap, _, err := m.CreateWith(context.Background(), in, CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(snap.ID, []Event{{Type: EventRebalance, MaxPasses: 1}, {Type: EventLeave, User: 0}}); err != nil {
		t.Fatal(err)
	}
	// Partial batch: second leave of user 0 fails; only the first event
	// (leave 1) applies and only it may be logged.
	if _, err := m.Apply(snap.ID, []Event{{Type: EventLeave, User: 1}, {Type: EventLeave, User: 0}}); err == nil {
		t.Fatal("double leave batch reported success")
	}
	// Fully failing batch: nothing applied, nothing logged.
	if _, err := m.Apply(snap.ID, []Event{{Type: EventLeave, User: 0}}); err == nil {
		t.Fatal("leave of departed user reported success")
	}
	if err := m.Delete(snap.ID); err != nil {
		t.Fatal(err)
	}

	ops := rec.of(snap.ID)
	kinds := make([]string, len(ops))
	for i, op := range ops {
		kinds[i] = op.kind
	}
	want := []string{"create", "events", "events", "end"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("op sequence %v, want %v", kinds, want)
	}
	if n := len(ops[1].events); n != 2 {
		t.Fatalf("first batch logged %d events, want 2", n)
	}
	if n := len(ops[2].events); n != 1 {
		t.Fatalf("partial batch logged %d events, want 1 (the applied prefix)", n)
	}
	if ops[1].from != 0 || ops[1].to != 2 || ops[2].from != 2 || ops[2].to != 3 {
		t.Fatalf("version chain broken: [%d,%d] then [%d,%d]", ops[1].from, ops[1].to, ops[2].from, ops[2].to)
	}
	if ops[3].reason != EndDeleted {
		t.Fatalf("end reason %q, want %q", ops[3].reason, EndDeleted)
	}
	if ops[0].state.Instance == in {
		t.Fatal("creation state shares the caller's instance; must be a clone")
	}
}

// TestPersisterSnapshotCadence: a snapshot op is cut once SnapshotEvery
// transitions accumulate, positioned after the triggering batch.
func TestPersisterSnapshotCadence(t *testing.T) {
	rec := newRecorder()
	m, _ := newTestManager(t, Options{Persister: rec, SnapshotEvery: 4})
	snap, _, err := m.CreateWith(context.Background(), testInstance(32), CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := m.Apply(snap.ID, []Event{{Type: EventRebalance, MaxPasses: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	ops := rec.of(snap.ID)
	kinds := make([]string, len(ops))
	for i, op := range ops {
		kinds[i] = op.kind
	}
	// create, 4 event batches, snapshot at version 4, 2 more batches.
	want := []string{"create", "events", "events", "events", "events", "snapshot", "events", "events"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("op sequence %v, want %v", kinds, want)
	}
	if cut := ops[5]; cut.state.Version != 4 {
		t.Fatalf("snapshot cut at version %d, want 4", cut.state.Version)
	}
}

// TestPersisterEvictionTombstone: TTL eviction persists an end op with the
// eviction reason — the satellite fix — while manager Close persists no end
// op at all (shutdown must leave sessions recoverable).
func TestPersisterEvictionTombstone(t *testing.T) {
	rec := newRecorder()
	m, _ := newTestManager(t, Options{Persister: rec, TTL: time.Hour})
	idle, _, err := m.CreateWith(context.Background(), testInstance(33), CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	survivor, _, err := m.CreateWith(context.Background(), testInstance(34), CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Fake clock: jump past the TTL, but keep the survivor touched.
	base := time.Now()
	m.now = func() time.Time { return base.Add(30 * time.Minute) }
	if _, err := m.Apply(survivor.ID, []Event{{Type: EventRebalance, MaxPasses: 1}}); err != nil {
		t.Fatal(err)
	}
	m.now = func() time.Time { return base.Add(90 * time.Minute) }
	if got := m.EvictIdle(); got != 1 {
		t.Fatalf("evicted %d sessions, want 1", got)
	}
	ops := rec.of(idle.ID)
	last := ops[len(ops)-1]
	if last.kind != "end" || last.reason != EndEvicted {
		t.Fatalf("evicted session's last op = %s/%s, want end/%s", last.kind, last.reason, EndEvicted)
	}
	// Shutdown: the survivor must NOT get a tombstone.
	m.Close()
	for _, op := range rec.of(survivor.ID) {
		if op.kind == "end" {
			t.Fatalf("manager Close tombstoned a live session (reason %q)", op.reason)
		}
	}
}

// TestPersisterAdoptOp: a drift-repair swap is logged as an adopt op whose
// configuration is a clone of (not an alias into) the adopted solution.
func TestPersisterAdoptOp(t *testing.T) {
	rec := newRecorder()
	m, _ := newTestManager(t, Options{Persister: rec, RepairMargin: -1})
	ctx := context.Background()
	in := testInstance(6)
	snap, _, err := m.CreateWith(ctx, in, CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Degrade the live configuration (the TestDriftRepairSwapsAndKeeps
	// trick) so the next repair cycle provably swaps.
	s, err := m.get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	bad := core.NewConfiguration(in.NumUsers(), in.K)
	for u := range bad.Assign {
		for sl := range bad.Assign[u] {
			bad.Assign[u][sl] = sl
		}
	}
	if err := s.ds.Adopt(bad); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.value = s.ds.Value()
	s.mu.Unlock()

	m.RepairAll(ctx)
	after, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Metrics.RepairSwaps != 1 {
		t.Fatalf("repair swaps = %d, want 1", after.Metrics.RepairSwaps)
	}
	ops := rec.of(snap.ID)
	var adopt *recordedOp
	for i := range ops {
		if ops[i].kind == "adopt" {
			adopt = &ops[i]
		}
	}
	if adopt == nil {
		t.Fatalf("no adopt op recorded (ops: %d)", len(ops))
	}
	if adopt.from != snap.Version || adopt.to != snap.Version+1 {
		t.Fatalf("adopt versions [%d,%d], want [%d,%d]", adopt.from, adopt.to, snap.Version, snap.Version+1)
	}
	if adopt.value != after.Value {
		t.Fatalf("adopt value %v, served %v", adopt.value, after.Value)
	}
	// The logged configuration must match what the session now serves.
	for u := range after.Assignment {
		for sl := range after.Assignment[u] {
			if adopt.conf.Assign[u][sl] != after.Assignment[u][sl] {
				t.Fatalf("adopt config[%d][%d] = %d, served %d", u, sl, adopt.conf.Assign[u][sl], after.Assignment[u][sl])
			}
		}
	}
}

// TestRestoreRoundTrip: Manager → State (via the persister's creation/cut
// images) → Restore reproduces version, value, configuration, active set
// and metrics, and the restored session keeps serving events.
func TestRestoreRoundTrip(t *testing.T) {
	rec := newRecorder()
	m, eng := newTestManager(t, Options{Persister: rec, SnapshotEvery: 4})
	in := testInstance(35)
	snap, _, err := m.CreateWith(context.Background(), in, CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	events := GenerateEvents(in.NumUsers(), in.NumItems, 8, 5)
	if _, err := m.Apply(snap.ID, events); err != nil {
		t.Fatal(err)
	}
	before, err := m.Snapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.of(snap.ID)
	var lastCut *State
	for _, op := range ops {
		if op.kind == "snapshot" || op.kind == "create" {
			lastCut = op.state
		}
	}
	if lastCut.Version != 8 {
		t.Fatalf("last cut at version %d, want 8 (cadence 4, batch of 8)", lastCut.Version)
	}

	m2, err := NewManager(Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.Close)
	restored, err := m2.Restore(lastCut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Version != before.Version || restored.Value != before.Value {
		t.Fatalf("restored (v%d, %v), want (v%d, %v)", restored.Version, restored.Value, before.Version, before.Value)
	}
	if fmt.Sprint(restored.Assignment) != fmt.Sprint(before.Assignment) {
		t.Fatal("restored assignment differs")
	}
	if fmt.Sprint(restored.Active) != fmt.Sprint(before.Active) {
		t.Fatal("restored active set differs")
	}
	if restored.Metrics != before.Metrics {
		t.Fatalf("restored metrics %+v, want %+v", restored.Metrics, before.Metrics)
	}
	// Still serves, and versions continue from where they were.
	res, err := m2.Apply(snap.ID, []Event{{Type: EventRebalance, MaxPasses: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != before.Version+1 {
		t.Fatalf("restored session applied to v%d, want v%d", res.Version, before.Version+1)
	}
	// A duplicate restore must be refused.
	if _, err := m2.Restore(lastCut, nil); err == nil {
		t.Fatal("duplicate restore accepted")
	}
}
