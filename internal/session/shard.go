package session

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the sharded serving path. The Manager no longer guards one
// sessions map with one mutex: it hash-partitions session ids over a fixed
// shard array (FNV-1a, the same routing internal/store uses for its writer
// shards), and each shard is an independent lock domain with a pinned owner
// goroutine. The shard's mutex covers only ITS map; its owner goroutine
// exclusively drives ITS TTL eviction sweeps and drift-repair cycles. No hot
// path — create, apply, snapshot, delete — ever takes another shard's lock,
// so contention scales down with the shard count instead of serializing the
// whole serving layer behind one mutex.

// ShardForID routes a session id to a shard: FNV-1a over the id bytes,
// reduced modulo the shard count. It is a pure function of the id, so the
// same id lands on the same shard across restarts — crash recovery restores
// every session into the shard that will serve it.
func ShardForID(id string, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(shards))
}

// ShardStats is one shard's slice of the manager counters, exposed so
// operators can see routing imbalance (per-shard live counts) and hot-shard
// skew (per-shard event totals) directly.
type ShardStats struct {
	Shard         int    `json:"shard"`
	Live          int    `json:"live" metric:"svgicd_sessions_shard_live" help:"Live sessions per shard."`
	Created       uint64 `json:"created" metric:"svgicd_sessions_shard_created_total" help:"Sessions created per shard."`
	Restored      uint64 `json:"restored,omitempty"`
	Evicted       uint64 `json:"evicted"`
	Deleted       uint64 `json:"deleted"`
	EventsApplied uint64 `json:"eventsApplied" metric:"svgicd_sessions_shard_events_total" help:"Applied live-session events per shard."`
	RepairRuns    uint64 `json:"repairRuns"`
	RepairSwaps   uint64 `json:"repairSwaps"`
	RepairSkips   uint64 `json:"repairSkips"`
	RepairWarm    uint64 `json:"repairWarm"`
	RepairCold    uint64 `json:"repairCold"`
}

// shard is one lock domain: a slice of the session map plus the counters
// attributed to it. Mutations touch only this shard's mutex; the owner
// goroutine (Manager.shardLoop) drives eviction and repair for exactly the
// sessions routed here.
type shard struct {
	idx int

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool

	// minTTL is the tightest positive effective TTL (nanoseconds) carried by
	// any session ever routed here; the owner goroutine derives its eviction
	// cadence from it. wake nudges the owner to re-arm when a session with a
	// tighter TTL override arrives (a manager with TTL zero starts with no
	// eviction ticker at all — the first override session creates it).
	minTTL atomic.Int64
	wake   chan struct{}

	live      atomic.Int64
	created   atomic.Uint64
	restored  atomic.Uint64
	evicted   atomic.Uint64
	deleted   atomic.Uint64
	events    atomic.Uint64
	joins     atomic.Uint64
	leaves    atomic.Uint64
	updates   atomic.Uint64
	rebals    atomic.Uint64
	repRuns   atomic.Uint64
	repSwaps  atomic.Uint64
	repKeeps  atomic.Uint64
	repStale  atomic.Uint64
	repErrors atomic.Uint64
	repSkips  atomic.Uint64
	repWarm   atomic.Uint64
	repCold   atomic.Uint64
}

// get looks a session up in this shard. ErrClosed once the manager's close
// sweep has passed through; ErrNotFound for ids never created, deleted or
// evicted.
func (sh *shard) get(id string) (*Session, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, ErrClosed
	}
	s, ok := sh.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// countEvents attributes one applied batch's per-kind totals to this shard.
func (sh *shard) countEvents(results []EventResult) {
	for _, r := range results {
		sh.events.Add(1)
		switch r.Type {
		case EventJoin:
			sh.joins.Add(1)
		case EventLeave:
			sh.leaves.Add(1)
		case EventUpdatePreference:
			sh.updates.Add(1)
		case EventRebalance:
			sh.rebals.Add(1)
		}
	}
}

// noteTTL records a session's positive effective TTL and wakes the owner
// goroutine when it tightens the shard minimum, so the eviction cadence
// follows the tightest TTL actually present instead of only the manager
// default.
func (sh *shard) noteTTL(ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	for {
		cur := sh.minTTL.Load()
		if cur > 0 && cur <= int64(ttl) {
			return
		}
		if sh.minTTL.CompareAndSwap(cur, int64(ttl)) {
			select {
			case sh.wake <- struct{}{}:
			default: // a wake is already pending; the owner re-reads minTTL
			}
			return
		}
	}
}

// stats snapshots this shard's counter block.
func (sh *shard) stats() ShardStats {
	return ShardStats{
		Shard:         sh.idx,
		Live:          int(sh.live.Load()),
		Created:       sh.created.Load(),
		Restored:      sh.restored.Load(),
		Evicted:       sh.evicted.Load(),
		Deleted:       sh.deleted.Load(),
		EventsApplied: sh.events.Load(),
		RepairRuns:    sh.repRuns.Load(),
		RepairSwaps:   sh.repSwaps.Load(),
		RepairSkips:   sh.repSkips.Load(),
		RepairWarm:    sh.repWarm.Load(),
		RepairCold:    sh.repCold.Load(),
	}
}

// shardLoop is the shard's pinned owner goroutine: it alone schedules this
// shard's drift-repair cycles and TTL eviction sweeps, so periodic work never
// crosses shard boundaries. The eviction ticker is created lazily from the
// shard's observed minimum TTL (a quarter of it, floored at 10ms) and
// tightened — never loosened — when a shorter-TTL session arrives; a manager
// with no TTL anywhere runs no eviction ticker at all. Repair cycles run off
// the loop goroutine so a slow cycle (many sessions × solve time) never
// starves eviction ticks; a tick that arrives while the previous cycle is
// still running is skipped rather than queued.
func (m *Manager) shardLoop(sh *shard, repairInterval time.Duration) {
	defer m.wg.Done()
	var repairC <-chan time.Time
	if repairInterval > 0 {
		t := time.NewTicker(repairInterval)
		defer t.Stop()
		repairC = t.C
	}
	var (
		evictT  *time.Ticker
		evictC  <-chan time.Time
		evictIv time.Duration
	)
	defer func() {
		if evictT != nil {
			evictT.Stop()
		}
	}()
	rearm := func() {
		ttl := time.Duration(sh.minTTL.Load())
		if ttl <= 0 {
			return
		}
		iv := ttl / 4
		if iv < 10*time.Millisecond {
			iv = 10 * time.Millisecond
		}
		switch {
		case evictT == nil:
			evictT = time.NewTicker(iv)
			evictC = evictT.C
			evictIv = iv
		case iv < evictIv:
			evictT.Reset(iv)
			evictIv = iv
		}
	}
	rearm()
	repairing := make(chan struct{}, 1)
	for {
		select {
		case <-m.done:
			return
		case <-repairC:
			select {
			case repairing <- struct{}{}:
				m.wg.Add(1)
				go func() {
					defer m.wg.Done()
					defer func() { <-repairing }()
					m.repairShard(m.ctx, sh)
				}()
			default: // previous cycle still in flight
			}
		case <-sh.wake:
			rearm()
		case <-evictC:
			m.evictShard(sh)
		}
	}
}

// evictShard removes this shard's sessions idle longer than their effective
// TTL (the session's own override when set, the manager default otherwise),
// returning how many were evicted.
//
// Session locks are never taken while holding the shard lock: a sweep
// blocking on one session's long event batch under sh.mu would stall every
// operation routed to this shard. Idleness is checked lock-by-lock outside
// sh.mu; confirmed candidates are then removed under sh.mu by identity alone.
// A session touched in the narrow window between its idleness check and
// removal can be evicted anyway — it had been idle for a full TTL moments
// earlier, which is within the eviction contract — and an event batch
// already in flight on a victim completes normally before close() lands.
func (m *Manager) evictShard(sh *shard) int {
	now := m.now()
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return 0
	}
	all := make(map[string]*Session, len(sh.sessions))
	for id, s := range sh.sessions {
		all[id] = s
	}
	sh.mu.Unlock()

	candidates := make(map[string]*Session)
	for id, s := range all {
		ttl := s.ttl // immutable after publication
		if ttl <= 0 {
			ttl = m.ttl
		}
		if ttl <= 0 {
			continue // never evicted
		}
		cutoff := now.Add(-ttl)
		s.mu.Lock()
		idle := !s.closed && s.lastTouch.Before(cutoff)
		s.mu.Unlock()
		if idle {
			candidates[id] = s
		}
	}
	if len(candidates) == 0 {
		return 0
	}

	var victims []*Session
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return 0
	}
	for id, s := range candidates {
		if sh.sessions[id] != s {
			continue // deleted or replaced meanwhile
		}
		delete(sh.sessions, id)
		sh.live.Add(-1)
		m.live.Add(-1)
		victims = append(victims, s)
	}
	sh.mu.Unlock()
	for _, s := range victims {
		// The eviction tombstone is part of the eviction, not an
		// afterthought: a TTL-evicted id whose WAL survived a restart would
		// resurrect as a live session the client believed gone.
		s.close(EndEvicted)
		sh.evicted.Add(1)
	}
	return len(victims)
}

// repairShard runs one drift-repair cycle over this shard's live sessions.
// Concurrency is bounded by the MANAGER-wide semaphore, not per shard: the
// engine's worker pool is the real execution bound, and N shards each
// spawning repairConcurrency solves would flood it N-fold.
func (m *Manager) repairShard(ctx context.Context, sh *shard) {
	sh.mu.Lock()
	list := make([]*Session, 0, len(sh.sessions))
	for _, s := range sh.sessions {
		list = append(list, s)
	}
	sh.mu.Unlock()
	var wg sync.WaitGroup
	for _, s := range list {
		if ctx.Err() != nil {
			break
		}
		m.repairSem <- struct{}{}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			defer func() { <-m.repairSem }()
			m.repairOne(ctx, sh, s)
		}(s)
	}
	wg.Wait()
}
