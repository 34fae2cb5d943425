// Package stats provides the small numerical substrate shared by the SVGIC
// library: deterministic random streams, a Fenwick tree with weighted
// sampling (used by AVG's advanced focal-parameter sampling), rank
// correlations and empirical distributions (used by the evaluation harness),
// and summary helpers.
package stats

import "math/rand/v2"

// NewRand returns a deterministic random stream for the given seed.
//
// Every randomized component in the library takes an explicit seed so that
// experiments, tests and benchmarks are exactly reproducible.
func NewRand(seed uint64) *rand.Rand {
	// The second PCG word is a fixed odd constant so distinct seeds produce
	// well-separated streams.
	return rand.New(rand.NewPCG(seed, seed*0x9e3779b97f4a7c15+0xda942042e4dd58b5))
}
