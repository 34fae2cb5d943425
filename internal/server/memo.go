package server

import (
	"bytes"
	"container/list"
	"encoding/json"
	"hash/maphash"
	"sync"

	"github.com/svgic/svgic/internal/engine"
)

// memoBudget bounds the body bytes the solve memo holds: twice a working set
// of 32 groups of ≈64 KB, so a store front's repeat requests all fit, while
// a stream of bodies that never repeat keeps only a few instances alive.
const memoBudget = 4 << 20

// memoMaxBody is the largest body the memo stores; a larger one is decoded
// on every request, so one huge instance cannot flush the working set.
const memoMaxBody = 1 << 20

// solveInput is a /v1/solve body decoded and prepared: the instance,
// validated and fingerprinted by engine.Prepare, and the algorithm
// selection. A memoized one is shared by every request that sends the same
// bytes, so nothing may mutate it; solvers and the engine only read
// instances.
type solveInput struct {
	prep   engine.Prepared
	algo   string
	params json.RawMessage
}

// solveMemo maps /v1/solve request bodies to their decoded inputs, so a
// repeated body skips JSON parsing, the instance build, validation and the
// fingerprint. Entries are found by a maphash of the body and confirmed by
// byte equality, and are evicted least recently used once the held bodies
// exceed memoBudget. The caller stores an input only after its request
// succeeded, so the memo holds nothing a request was refused for.
type solveMemo struct {
	seed   maphash.Seed
	mu     sync.Mutex
	order  *list.List // front = most recently used; values are *memoEntry
	byHash map[uint64]*list.Element
	bytes  int // body bytes held
	stats  MemoStats
}

type memoEntry struct {
	hash  uint64
	body  []byte
	input solveInput
}

func newSolveMemo() *solveMemo {
	return &solveMemo{
		seed:   maphash.MakeSeed(),
		order:  list.New(),
		byHash: make(map[uint64]*list.Element),
	}
}

// get returns the input memoized for body, counting a hit or a miss, and the
// body's hash for a later put.
func (m *solveMemo) get(body []byte) (input solveInput, hash uint64, ok bool) {
	hash = maphash.Bytes(m.seed, body)
	m.mu.Lock()
	defer m.mu.Unlock()
	if el := m.byHash[hash]; el != nil {
		if e := el.Value.(*memoEntry); bytes.Equal(e.body, body) {
			m.order.MoveToFront(el)
			m.stats.Hits++
			return e.input, hash, true
		}
	}
	m.stats.Misses++
	return solveInput{}, hash, false
}

// put stores input under a copy of body, whose hash get returned, then
// evicts the least recently used entries until the held bodies fit
// memoBudget. The copy is exactly as long as the body, so the caller may
// reuse its buffer and memoBudget counts every byte the memo holds. A body
// over memoMaxBody is not stored. An entry already under the hash (the same
// body stored by a concurrent miss, or a colliding one) gives way to the new
// one.
func (m *solveMemo) put(hash uint64, body []byte, input solveInput) {
	if len(body) > memoMaxBody {
		return
	}
	own := make([]byte, len(body))
	copy(own, body)
	body = own
	m.mu.Lock()
	defer m.mu.Unlock()
	if el := m.byHash[hash]; el != nil {
		m.remove(el)
	}
	m.byHash[hash] = m.order.PushFront(&memoEntry{hash: hash, body: body, input: input})
	m.bytes += len(body)
	for m.bytes > memoBudget {
		m.remove(m.order.Back())
		m.stats.Evictions++
	}
}

func (m *solveMemo) remove(el *list.Element) {
	e := m.order.Remove(el).(*memoEntry)
	delete(m.byHash, e.hash)
	m.bytes -= len(e.body)
}

// snapshot returns the memo's counters.
func (m *solveMemo) snapshot() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
