package engine

import (
	"errors"
	"testing"

	"github.com/svgic/svgic/internal/core"
)

// put and get drive the cache the way Engine.solve does: put leads a flight
// on a key the cache does not hold and lands sol on it; get is a lookup whose
// miss lands its own flight as a failure, so the miss caches nothing.
func (c *lruCache) put(key cacheKey, sol *core.Solution) {
	_, f, lead := c.lookup(key)
	if !lead {
		panic("put: key is cached or in flight")
	}
	c.land(key, f, sol, nil)
}

func (c *lruCache) get(key cacheKey) (*core.Solution, bool) {
	hit, f, lead := c.lookup(key)
	if lead {
		c.land(key, f, nil, errors.New("miss"))
	}
	return hit, hit != nil
}

func solOf(item int) *core.Solution {
	c := core.NewConfiguration(1, 1)
	c.Assign[0][0] = item
	return &core.Solution{Algorithm: "test", Config: c, Components: 1}
}

func ck(fp uint64) cacheKey { return cacheKey{fp: fp, solver: "test"} }

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put(ck(1), solOf(1))
	c.put(ck(2), solOf(2))
	if _, ok := c.get(ck(1)); !ok { // promotes 1 over 2
		t.Fatal("entry 1 missing")
	}
	c.put(ck(3), solOf(3)) // evicts 2, the least recently used
	if _, ok := c.get(ck(2)); ok {
		t.Fatal("entry 2 not evicted")
	}
	for _, k := range []uint64{1, 3} {
		got, ok := c.get(ck(k))
		if !ok {
			t.Fatalf("entry %d missing", k)
		}
		if got.Config.Assign[0][0] != int(k) {
			t.Fatalf("entry %d carries item %d", k, got.Config.Assign[0][0])
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestLRUCacheSolverKeyed: one fingerprint under two solver identities is
// two independent entries — the non-aliasing property the serving layer
// depends on.
func TestLRUCacheSolverKeyed(t *testing.T) {
	c := newLRUCache(4)
	c.put(cacheKey{fp: 1, solver: "avg{seed=1}"}, solOf(10))
	c.put(cacheKey{fp: 1, solver: "avgd{r=0.25}"}, solOf(20))
	a, ok := c.get(cacheKey{fp: 1, solver: "avg{seed=1}"})
	if !ok || a.Config.Assign[0][0] != 10 {
		t.Fatalf("avg entry = %+v, %v", a, ok)
	}
	b, ok := c.get(cacheKey{fp: 1, solver: "avgd{r=0.25}"})
	if !ok || b.Config.Assign[0][0] != 20 {
		t.Fatalf("avgd entry = %+v, %v", b, ok)
	}
	if _, ok := c.get(cacheKey{fp: 1, solver: "per{}"}); ok {
		t.Fatal("unknown solver key unexpectedly hit")
	}
}

func TestLRUCacheIsolation(t *testing.T) {
	c := newLRUCache(2)
	orig := solOf(5)
	c.put(ck(9), orig)
	orig.Config.Assign[0][0] = -1 // caller mutates after put
	a, _ := c.get(ck(9))
	if a.Config.Assign[0][0] != 5 {
		t.Fatal("put did not copy")
	}
	a.Config.Assign[0][0] = -2 // caller mutates a get result
	b, _ := c.get(ck(9))
	if b.Config.Assign[0][0] != 5 {
		t.Fatal("get did not copy")
	}
}
