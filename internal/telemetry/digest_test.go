package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// rankError reports how far est sits from the q-quantile of xs in RANK
// space: 0 when est lands inside the rank interval [frac(<est), frac(≤est)]
// (duplicates make it an interval), otherwise the distance to it.
func rankError(xs []float64, est float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	lo := float64(sort.SearchFloat64s(sorted, est)) / float64(len(sorted))
	hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > est })) / float64(len(sorted))
	if q < lo {
		return lo - q
	}
	if q > hi {
		return q - hi
	}
	return 0
}

// adversarialDistributions are the shapes that break naive sketches: heavy
// tails (tail clusters must stay small), extreme bimodality with outliers,
// constants and near-constants (degenerate spans), pre-sorted input (worst
// case for buffer-order-sensitive sketches) and duplicate-heavy discrete
// data (rank intervals, not points).
func adversarialDistributions(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(42))
	out := make(map[string][]float64)

	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64()
	}
	out["uniform"] = uniform

	lognormal := make([]float64, n)
	for i := range lognormal {
		lognormal[i] = math.Exp(rng.NormFloat64() * 1.5)
	}
	out["lognormal"] = lognormal

	pareto := make([]float64, n)
	for i := range pareto {
		pareto[i] = math.Pow(1-rng.Float64(), -1/1.1) // α=1.1: very heavy tail
	}
	out["pareto"] = pareto

	bimodal := make([]float64, n)
	for i := range bimodal {
		if rng.Float64() < 0.95 {
			bimodal[i] = 0.001 + 0.0001*rng.NormFloat64()
		} else {
			bimodal[i] = 10 + rng.Float64()*100 // far-outlier mode
		}
	}
	out["bimodal-outliers"] = bimodal

	sorted := make([]float64, n)
	for i := range sorted {
		sorted[i] = float64(i) * float64(i) // sorted AND convex
	}
	out["sorted-input"] = sorted

	discrete := make([]float64, n)
	for i := range discrete {
		discrete[i] = float64(rng.Intn(5)) // 5 distinct values, huge plateaus
	}
	out["discrete-duplicates"] = discrete

	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 3.14
	}
	out["constant"] = constant

	return out
}

// TestDigestAccuracy pins the satellite acceptance bound: p50 and p99 (and
// the deeper p99.9) within 1% rank error of exact sorted quantiles, on every
// adversarial distribution.
func TestDigestAccuracy(t *testing.T) {
	for name, xs := range adversarialDistributions(20000) {
		d := NewDigest()
		for _, x := range xs {
			d.Add(x)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			est := d.Quantile(q)
			if err := rankError(xs, est, q); err > 0.01 {
				t.Errorf("%s: p%g estimate %g off by %.4f in rank (want ≤ 0.01)", name, q*100, est, err)
			}
		}
	}
}

// TestDigestCDFAccuracy checks the inverse direction: CDF(x) within 1% of
// the exact empirical fraction ≤ x at several probe points.
func TestDigestCDFAccuracy(t *testing.T) {
	for name, xs := range adversarialDistributions(20000) {
		d := NewDigest()
		for _, x := range xs {
			d.Add(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			probe := sorted[int(q*float64(len(sorted)))]
			got := d.CDF(probe)
			lo := float64(sort.SearchFloat64s(sorted, probe)) / float64(len(sorted))
			hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > probe })) / float64(len(sorted))
			if got < lo-0.01 || got > hi+0.01 {
				t.Errorf("%s: CDF(%g) = %.4f outside [%.4f, %.4f] ± 0.01", name, probe, got, lo, hi)
			}
		}
	}
}

// TestDigestSingletonCDFExact pins the point-mass refinement the burn-rate
// boundary semantics rely on: with few samples every centroid is a
// singleton, and the CDF between two distinct samples is exactly the
// fraction at or below the left one — no interpolation smear.
func TestDigestSingletonCDFExact(t *testing.T) {
	d := NewDigest()
	d.Add(0.05)
	d.Add(0.2)
	if got := d.CDF(0.1); got != 0.5 {
		t.Fatalf("CDF(0.1) over {0.05, 0.2} = %v, want exactly 0.5", got)
	}
	d.Add(0.099)
	if got := d.CDF(0.1); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("CDF(0.1) over {0.05, 0.099, 0.2} = %v, want exactly 2/3", got)
	}
	// At a sample point the sample itself counts as ≤ x.
	if got := d.CDF(0.099); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("CDF(0.099) = %v, want exactly 2/3", got)
	}
}

func TestDigestCountSumMinMax(t *testing.T) {
	d := NewDigest()
	if d.Count() != 0 || d.Sum() != 0 || d.Max() != 0 || d.Quantile(0.5) != 0 || d.CDF(1) != 0 {
		t.Fatal("empty digest must read as zero everywhere")
	}
	for i := 1; i <= 1000; i++ {
		d.Add(float64(i))
	}
	if d.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", d.Count())
	}
	if d.Sum() != 500500 {
		t.Fatalf("Sum = %g, want 500500", d.Sum())
	}
	if d.Max() != 1000 {
		t.Fatalf("Max = %g, want 1000", d.Max())
	}
	if got := d.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %g, want min", got)
	}
	if got := d.Quantile(1); got != 1000 {
		t.Fatalf("Quantile(1) = %g, want max", got)
	}
	// NaN/Inf must be ignored, not poison the sketch.
	d.Add(math.NaN())
	d.Add(math.Inf(1))
	if d.Count() != 1000 || d.Max() != 1000 {
		t.Fatalf("NaN/Inf leaked into the digest: count=%d max=%g", d.Count(), d.Max())
	}
}

// TestDigestMerge checks that merging two digests approximates the digest
// of the concatenated stream within the same rank bound.
func TestDigestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all []float64
	a, b := NewDigest(), NewDigest()
	for i := 0; i < 10000; i++ {
		x := math.Exp(rng.NormFloat64())
		all = append(all, x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count() != 10000 {
		t.Fatalf("merged Count = %d, want 10000", a.Count())
	}
	for _, q := range []float64{0.5, 0.99} {
		if err := rankError(all, a.Quantile(q), q); err > 0.01 {
			t.Errorf("merged p%g off by %.4f in rank (want ≤ 0.01)", q*100, err)
		}
	}
}

func TestDigestReset(t *testing.T) {
	d := NewDigest()
	for i := 0; i < 100; i++ {
		d.Add(float64(i))
	}
	d.Reset()
	if d.Count() != 0 || d.Sum() != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("Reset must empty the digest")
	}
	d.Add(5)
	if d.Count() != 1 || d.Quantile(0.5) != 5 {
		t.Fatal("digest must be reusable after Reset")
	}
}
