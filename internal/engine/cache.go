package engine

import (
	"container/list"
	"sync"

	"github.com/svgic/svgic/internal/core"
)

// cacheKey identifies one cache entry and one flight: the instance
// fingerprint (core.Fingerprint) paired with the solver identity
// (SolverKey), so two algorithms — or one algorithm under two
// parameterizations — never alias each other's results.
type cacheKey struct {
	fp     uint64
	solver string
}

// flight is one in-flight solve that identical calls park on.
type flight struct {
	done    chan struct{}
	joiners int            // raised under lruCache.mu until land unregisters the flight
	sol     *core.Solution // immutable clone of a success, shared by the cache and joiners; set before done closes
	err     error
}

// lruCache memoizes solved solutions and tracks the solves in flight for the
// keys it does not hold, both under one mutex, so an arrival always finds
// either the flight or the result it landed. It owns private deep copies:
// land stores a clone and lookup returns a clone, so cached entries can never
// be mutated through a caller's solution or vice versa.
type lruCache struct {
	mu      sync.Mutex
	cap     int        // zero keeps no entries, but calls still coalesce
	order   *list.List // front = most recently used; values are *cacheEntry
	byKey   map[cacheKey]*list.Element
	flights map[cacheKey]*flight
}

type cacheEntry struct {
	key cacheKey
	sol *core.Solution
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		order:   list.New(),
		byKey:   make(map[cacheKey]*list.Element, capacity),
		flights: make(map[cacheKey]*flight),
	}
}

// lookup resolves key to exactly one of three things: a private copy of the
// cached solution (hit), the flight to join (f, its joiner count already
// raised), or a new flight the caller leads and must land (f with lead set).
func (c *lruCache) lookup(key cacheKey) (hit *core.Solution, f *flight, lead bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		sol := el.Value.(*cacheEntry).sol
		c.mu.Unlock()
		// Clone outside the lock: cached solutions are immutable (entries are
		// only ever added or evicted), so concurrent hits only contend for the
		// pointer grab, not the O(n·k) copy.
		return sol.Clone(), nil, false
	}
	if f = c.flights[key]; f != nil {
		f.joiners++
		c.mu.Unlock()
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	return nil, f, true
}

// land ends the flight f on key with the leader's result. One critical
// section caches a success, unregisters the flight and freezes its joiner
// count; then the joiners wake. sol stays the leader's own: the cache and the
// joiners share one immutable clone of it, made only when one of them needs
// it.
func (c *lruCache) land(key cacheKey, f *flight, sol *core.Solution, err error) {
	var shared *core.Solution
	if err == nil && c.cap > 0 {
		shared = sol.Clone()
	}
	c.mu.Lock()
	if shared != nil {
		c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, sol: shared})
		for c.order.Len() > c.cap {
			last := c.order.Back()
			c.order.Remove(last)
			delete(c.byKey, last.Value.(*cacheEntry).key)
		}
	}
	delete(c.flights, key)
	joiners := f.joiners
	c.mu.Unlock()
	if err == nil && joiners > 0 && shared == nil {
		shared = sol.Clone()
	}
	f.sol, f.err = shared, err
	close(f.done)
}

// len reports the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
