package stats

import (
	"fmt"
	"math/rand/v2"
)

// Fenwick is a binary indexed tree over non-negative float64 weights.
//
// It supports point updates, prefix sums and weighted sampling in O(log n).
// AVG uses it to sample focal (item, slot) pairs proportionally to the
// maintained maximum utility factors (the advanced focal-parameter sampling
// scheme of the paper, Observation 3).
type Fenwick struct {
	tree []float64 // 1-based
	vals []float64 // current point values, 0-based
}

// NewFenwick returns a Fenwick tree with n zero weights.
func NewFenwick(n int) *Fenwick {
	return &Fenwick{tree: make([]float64, n+1), vals: make([]float64, n)}
}

// Set replaces the weight at index i. Negative weights are clamped to zero:
// sampling weights are utility factors, which are non-negative by
// construction, so a tiny negative value can only arise from floating-point
// round-off.
func (f *Fenwick) Set(i int, w float64) {
	if w < 0 {
		w = 0
	}
	delta := w - f.vals[i]
	if delta == 0 {
		return
	}
	f.vals[i] = w
	for j := i + 1; j <= len(f.vals); j += j & (-j) {
		f.tree[j] += delta
	}
}

// Get returns the weight at index i.
func (f *Fenwick) Get(i int) float64 { return f.vals[i] }

// Total returns the sum of all weights.
func (f *Fenwick) Total() float64 { return f.prefix(len(f.vals)) }

// prefix returns the sum of weights in [0, n).
func (f *Fenwick) prefix(n int) float64 {
	var s float64
	for ; n > 0; n -= n & (-n) {
		s += f.tree[n]
	}
	return s
}

// Sample draws an index with probability proportional to its weight.
// It reports an error when the total weight is not positive.
func (f *Fenwick) Sample(r *rand.Rand) (int, error) {
	total := f.Total()
	if total <= 0 {
		return 0, fmt.Errorf("stats: sampling from empty weight tree (total=%g)", total)
	}
	target := r.Float64() * total
	// Descend the implicit tree: classic Fenwick lower_bound on prefix sums.
	idx := 0
	bit := 1
	for bit<<1 <= len(f.vals) {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= len(f.vals) && f.tree[next] < target {
			target -= f.tree[next]
			idx = next
		}
	}
	if idx >= len(f.vals) {
		idx = len(f.vals) - 1
	}
	// Accumulated round-off can land on a zero-weight slot; walk to the next
	// positive weight to keep the sampler total-preserving.
	for i := 0; i < len(f.vals); i++ {
		j := (idx + i) % len(f.vals)
		if f.vals[j] > 0 {
			return j, nil
		}
	}
	return 0, fmt.Errorf("stats: no positive weight found despite total=%g", total)
}
