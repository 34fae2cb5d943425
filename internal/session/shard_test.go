package session

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardForIDDeterminism: the routing is canonical FNV-1a over the id
// bytes — a pure, process-independent function, so a session restored after
// a restart lands on the shard that will serve it. Asserted against the
// stdlib FNV-1a, not a second copy of our own arithmetic.
func TestShardForIDDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 0; n < 1000; n++ {
		id := fmt.Sprintf("s%06d-%08x", n, rng.Uint32())
		for _, shards := range []int{1, 2, 4, 8, 16} {
			h := fnv.New32a()
			h.Write([]byte(id))
			want := int(h.Sum32() % uint32(shards))
			if got := ShardForID(id, shards); got != want {
				t.Fatalf("ShardForID(%q, %d) = %d, canonical FNV-1a says %d", id, shards, got, want)
			}
			if again := ShardForID(id, shards); again != want {
				t.Fatalf("ShardForID(%q, %d) not stable: %d then %d", id, shards, want, again)
			}
		}
	}
}

// TestShardDistribution: 10k ids in the manager's own id format spread
// within ±20% of uniform over 8 shards — the partition cannot concentrate
// load on a hot shard.
func TestShardDistribution(t *testing.T) {
	const (
		shards = 8
		n      = 10000
	)
	rng := rand.New(rand.NewPCG(7, 11))
	counts := make([]int, shards)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%06d-%08x", i+1, rng.Uint32())
		counts[ShardForID(id, shards)]++
	}
	uniform := float64(n) / shards
	for i, c := range counts {
		if dev := float64(c)/uniform - 1; dev > 0.20 || dev < -0.20 {
			t.Errorf("shard %d holds %d ids, %+.1f%% off uniform %g (counts %v)", i, c, 100*dev, uniform, counts)
		}
	}
}

// TestRestoreRoutesToOwningShard: Restore installs the session into the
// shard its id hashes to, not wherever is convenient — the invariant that
// makes per-shard eviction and repair see every session exactly once after
// a crash.
func TestRestoreRoutesToOwningShard(t *testing.T) {
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

	dst, _ := newTestManager(t, Options{Engine: eng, Shards: 8})
	if _, err := dst.Restore(st, nil, 0); err != nil {
		t.Fatal(err)
	}
	owner := dst.shardOf(st.ID)
	owner.mu.Lock()
	_, onOwner := owner.sessions[st.ID]
	owner.mu.Unlock()
	if !onOwner {
		t.Fatalf("restored session %s not on its owning shard %d", st.ID, owner.idx)
	}
	if got := dst.shards[owner.idx].restored.Load(); got != 1 {
		t.Fatalf("owning shard restored counter = %d, want 1", got)
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
}

// TestPerSessionTTLOverride: a CreateSpec.TTL session is evicted after ITS
// idle bound even on a manager whose global TTL is zero, and a session
// without the override on the same manager is never evicted.
func TestPerSessionTTLOverride(t *testing.T) {
	m, _ := newTestManager(t, Options{Shards: 4})
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

// TestTTLOverrideArmsShardSweep: creating a short-TTL session on a manager
// with no global TTL wakes the owning shard's goroutine into running the
// eviction sweep — no manual EvictIdle call anywhere.
func TestTTLOverrideArmsShardSweep(t *testing.T) {
	m, _ := newTestManager(t, Options{Shards: 2})
	snap, _, err := m.CreateWith(context.Background(), testInstance(64), CreateSpec{TTL: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := m.Snapshot(snap.ID); errors.Is(err, ErrNotFound) {
			return // evicted by the shard's own sweep
		}
		// NOT polling via Snapshot alone — a read refreshes the idle clock,
		// so back off well past the TTL between probes.
		time.Sleep(60 * time.Millisecond)
	}
	t.Fatal("session with a 40ms TTL override never evicted by the shard sweep")
}

// TestShardStatsMergeToManagerStats: the per-shard counter slices sum to
// the merged Stats, and live counts agree between the global atomic and the
// per-shard ones — no counter is dropped or double-attributed by sharding.
func TestShardStatsMergeToManagerStats(t *testing.T) {
	m, _ := newTestManager(t, Options{Shards: 4})
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
	st := m.Stats()
	per := m.ShardStats()
	if len(per) != 4 || m.Shards() != 4 {
		t.Fatalf("shard count: len(per)=%d Shards()=%d, want 4", len(per), m.Shards())
	}
	var sum ShardStats
	for i, sp := range per {
		if sp.Shard != i {
			t.Fatalf("shard slice %d claims index %d", i, sp.Shard)
		}
		sum.Live += sp.Live
		sum.Created += sp.Created
		sum.Deleted += sp.Deleted
		sum.EventsApplied += sp.EventsApplied
	}
	if sum.Live != st.Live || st.Live != m.Len() {
		t.Fatalf("live mismatch: per-shard %d, merged %d, Len %d", sum.Live, st.Live, m.Len())
	}
	if sum.Created != st.Created || sum.Created != 12 {
		t.Fatalf("created mismatch: per-shard %d, merged %d, want 12", sum.Created, st.Created)
	}
	if sum.Deleted != st.Deleted || sum.Deleted != 1 {
		t.Fatalf("deleted mismatch: per-shard %d, merged %d, want 1", sum.Deleted, st.Deleted)
	}
	if sum.EventsApplied != st.EventsApplied || sum.EventsApplied != 12 {
		t.Fatalf("events mismatch: per-shard %d, merged %d, want 12", sum.EventsApplied, st.EventsApplied)
	}
}

// TestCrossShardStress: concurrent create / apply / snapshot / delete /
// restore / evict / stats across every shard of a small-shard manager, run
// under -race in CI. The assertions at the end are conservation laws: every
// session ever admitted is exactly one of live, deleted, evicted or closed
// with the manager.
func TestCrossShardStress(t *testing.T) {
	m, eng := newTestManager(t, Options{Shards: 4, MaxSessions: 256})
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
			_ = m.ShardStats()
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
	var perLive int
	for _, sp := range m.ShardStats() {
		perLive += sp.Live
	}
	if perLive != st.Live {
		t.Fatalf("per-shard live %d != global live %d", perLive, st.Live)
	}
}
