package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRestoreKeepsTTLOverride: a session's TTL override travels in its
// durable image, and Restore installs the session with that override, served
// and counted by the new manager.
func TestRestoreKeepsTTLOverride(t *testing.T) {
	src, eng := newTestManager(t, Options{})
	snap, _, err := src.CreateWith(context.Background(), testInstance(61), CreateSpec{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s, err := src.get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	st := s.stateLocked()
	s.mu.Unlock()

	dst, _ := newTestManager(t, Options{Engine: eng})
	if _, err := dst.Restore(st, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := dst.Stats(); got.Restored != 1 || got.Live != 1 {
		t.Fatalf("stats after restore: %+v, want restored 1 and live 1", got)
	}
	if st.TTL != time.Hour {
		t.Fatalf("TTL override lost from durable state: %v", st.TTL)
	}
	restored, err := dst.get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if restored.ttl != time.Hour {
		t.Fatalf("restored session ttl = %v, want 1h", restored.ttl)
	}
	if got := time.Duration(dst.minTTL.Load()); got != time.Hour {
		t.Fatalf("restored override did not arm the sweep: minTTL = %v, want 1h", got)
	}
}

// TestPerSessionTTLOverride: a CreateSpec.TTL session is evicted after ITS
// idle bound even on a manager whose global TTL is zero, and a session
// without the override on the same manager is never evicted.
func TestPerSessionTTLOverride(t *testing.T) {
	m, _ := newTestManager(t, Options{})
	base := time.Now()
	m.now = func() time.Time { return base }
	ctx := context.Background()

	mortal, _, err := m.CreateWith(ctx, testInstance(62), CreateSpec{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	immortal, _, err := m.CreateWith(ctx, testInstance(63), CreateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	base = base.Add(2 * time.Minute)
	if n := m.EvictIdle(); n != 1 {
		t.Fatalf("EvictIdle = %d, want 1 (only the TTL-override session)", n)
	}
	if _, err := m.Snapshot(mortal.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("override session after eviction: %v, want ErrNotFound", err)
	}
	if _, err := m.Snapshot(immortal.ID); err != nil {
		t.Fatalf("no-TTL session evicted on a TTL-0 manager: %v", err)
	}
	if st := m.Stats(); st.Evicted != 1 || st.Live != 1 {
		t.Fatalf("stats after override eviction: %+v", st)
	}
}

// TestTTLOverrideArmsSweep: creating a short-TTL session on a manager with
// no global TTL wakes the manager's goroutine into running the eviction
// sweep — no manual EvictIdle call anywhere.
func TestTTLOverrideArmsSweep(t *testing.T) {
	m, _ := newTestManager(t, Options{})
	snap, _, err := m.CreateWith(context.Background(), testInstance(64), CreateSpec{TTL: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := m.Snapshot(snap.ID); errors.Is(err, ErrNotFound) {
			return // evicted by the manager's own sweep
		}
		// NOT polling via Snapshot alone — a read refreshes the idle clock,
		// so back off well past the TTL between probes.
		time.Sleep(60 * time.Millisecond)
	}
	t.Fatal("session with a 40ms TTL override never evicted by the background sweep")
}

// TestShardStatsMergeToManagerStats: after a sequential run the manager's
// counters hold exact values, and Stats().Live agrees with Len. The name
// dates from the hash-sharded manager, whose per-shard counters this test
// summed; with one session table it checks the one counter set directly.
func TestShardStatsMergeToManagerStats(t *testing.T) {
	m, _ := newTestManager(t, Options{})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 12; i++ {
		snap, _, err := m.CreateWith(ctx, testInstance(uint64(70+i)), CreateSpec{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
		if _, err := m.Apply(snap.ID, []Event{{Type: EventRebalance}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Created != 12 || st.Deleted != 1 || st.EventsApplied != 12 || st.Live != 11 || st.Live != m.Len() {
		t.Fatalf("stats %+v (Len %d), want created 12, deleted 1, eventsApplied 12, live 11 == Len", st, m.Len())
	}
}

// TestCrossShardStress: concurrent create / apply / snapshot / delete /
// restore / evict / stats on the manager's one session table, run under
// -race in CI. The name dates from the hash-sharded manager. The
// assertions at the end are conservation laws: every session ever admitted
// is exactly one of live, deleted, evicted or closed with the manager.
func TestCrossShardStress(t *testing.T) {
	m, eng := newTestManager(t, Options{MaxSessions: 256})
	ctx := context.Background()

	// Restorable state images, minted from throwaway sessions up front so
	// the restore goroutine exercises the cross-epoch path (ids unknown to
	// the live id minter).
	var states []*State
	{
		src, _ := newTestManager(t, Options{Engine: eng})
		for i := 0; i < 8; i++ {
			snap, _, err := src.CreateWith(ctx, testInstance(uint64(90+i)), CreateSpec{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := src.get(snap.ID)
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			st := s.stateLocked()
			s.mu.Unlock()
			st.ID = fmt.Sprintf("epoch0-%02d", i)
			states = append(states, st)
		}
		src.Close()
	}

	var (
		wg       sync.WaitGroup
		created  atomic.Uint64
		deleted  atomic.Uint64
		restored atomic.Uint64
	)
	var idMu sync.Mutex
	var idPool []string
	pushID := func(id string) { idMu.Lock(); idPool = append(idPool, id); idMu.Unlock() }
	takeID := func() (string, bool) {
		idMu.Lock()
		defer idMu.Unlock()
		if len(idPool) == 0 {
			return "", false
		}
		id := idPool[len(idPool)-1]
		idPool = idPool[:len(idPool)-1]
		return id, true
	}
	peekID := func() (string, bool) {
		idMu.Lock()
		defer idMu.Unlock()
		if len(idPool) == 0 {
			return "", false
		}
		return idPool[0], true
	}

	const rounds = 30
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) { // creators
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap, _, err := m.CreateWith(ctx, testInstance(uint64(100+10*g+i%7)), CreateSpec{})
				if err != nil {
					if errors.Is(err, ErrLimit) {
						continue
					}
					t.Error(err)
					return
				}
				created.Add(1)
				pushID(snap.ID)
			}
		}(g)
	}
	wg.Add(1)
	go func() { // restorer
		defer wg.Done()
		for _, st := range states {
			if _, err := m.Restore(st, nil, 0); err != nil {
				t.Error(err)
				return
			}
			restored.Add(1)
			pushID(st.ID)
		}
	}()
	wg.Add(1)
	go func() { // deleter
		defer wg.Done()
		for i := 0; i < 2*rounds; i++ {
			id, ok := takeID()
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			switch err := m.Delete(id); {
			case err == nil:
				deleted.Add(1)
			case errors.Is(err, ErrNotFound):
			default:
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // appliers + readers
			defer wg.Done()
			for i := 0; i < 2*rounds; i++ {
				id, ok := peekID()
				if !ok {
					time.Sleep(time.Millisecond)
					continue
				}
				if _, err := m.Apply(id, []Event{{Type: EventRebalance}}); err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
				if _, err := m.Snapshot(id); err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // sweepers: eviction (a no-op without TTLs, but takes every path) + stats scrapes
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			m.EvictIdle()
			st := m.Stats()
			if st.Live < 0 || st.Live > 256 {
				t.Errorf("impossible live count %d", st.Live)
				return
			}
			_ = m.Len()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	st := m.Stats()
	if st.Created != created.Load() || st.Restored != restored.Load() || st.Deleted != deleted.Load() {
		t.Fatalf("counter drift: manager %+v vs observed created=%d restored=%d deleted=%d",
			st, created.Load(), restored.Load(), deleted.Load())
	}
	admitted := st.Created + st.Restored
	gone := st.Deleted + st.Evicted
	if uint64(st.Live) != admitted-gone {
		t.Fatalf("conservation broken: live %d != admitted %d - gone %d", st.Live, admitted, gone)
	}
	if st.Live != m.Len() {
		t.Fatalf("Len %d != Stats.Live %d", m.Len(), st.Live)
	}
}
