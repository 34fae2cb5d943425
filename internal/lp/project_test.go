package lp

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/svgic/svgic/internal/stats"
)

// projectBisect is the bisection ProjectCappedSimplex used before its exact
// breakpoint walk, kept as the reference the walk is tested against. A θ far
// from 0 has an ulp far above 1e-9, so θ is bisected as an offset δ from an
// input value p, over offsets v_i − p saturated to ±4: values near θ then
// subtract exactly, and a root within 3 of p clamps every saturated offset
// the way the true one clamps. Some input is always that close to θ (a free
// coordinate lies within 1 of it), so the first p whose root lands within 3
// gives the projection.
func projectBisect(v []float64, k float64) []float64 {
	n := len(v)
	if n == 0 {
		return v
	}
	if k <= 0 || k >= float64(n) {
		for i := range v {
			v[i] = min(max(k, 0), 1)
		}
		return v
	}
	w := make([]float64, n)
	for _, p := range v {
		for i, x := range v {
			w[i] = min(max(x-p, -4), 4)
		}
		if delta := bisectRoot(w, k); math.Abs(delta) <= 3 {
			for i := range v {
				v[i] = min(max(w[i]-delta, 0), 1)
			}
			break
		}
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	if resid := k - sum; resid != 0 {
		for i, x := range v {
			if x > 1e-12 && x < 1-1e-12 {
				if nv := x + resid; nv >= 0 && nv <= 1 {
					v[i] = nv
					break
				}
			}
		}
	}
	return v
}

// bisectRoot bisects θ over [min v − 1, max v] until the bracket stops
// shrinking, keeping capSum(v, lo) > k ≥ capSum(v, hi).
func bisectRoot(v []float64, k float64) float64 {
	lo, hi := slices.Min(v)-1, slices.Max(v)
	for {
		mid := lo/2 + hi/2
		if mid <= lo || mid >= hi {
			return mid
		}
		if capSum(v, mid) > k {
			lo = mid
		} else {
			hi = mid
		}
	}
}

func capSum(v []float64, theta float64) float64 {
	var s float64
	for _, x := range v {
		s += min(max(x-theta, 0), 1)
	}
	return s
}

// checkProjection asserts the properties of a capped-simplex projection of a
// finite v with 0 < k < len(v): every coordinate in [0,1], the sum at k,
// agreement with the bisection reference, and idempotence.
func checkProjection(t *testing.T, v []float64, k, tol float64) {
	t.Helper()
	got := ProjectCappedSimplex(slices.Clone(v), k)
	var sum float64
	for i, x := range got {
		if !(x >= 0 && x <= 1) {
			t.Fatalf("v=%v k=%v: x[%d]=%v outside [0,1]", v, k, i, x)
		}
		sum += x
	}
	if math.Abs(sum-k) > 1e-9*max(1, k) {
		t.Fatalf("v=%v k=%v: sum %v", v, k, sum)
	}
	want := projectBisect(slices.Clone(v), k)
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("v=%v k=%v: x[%d] exact %v, bisection %v", v, k, i, got[i], want[i])
		}
	}
	again := ProjectCappedSimplex(slices.Clone(got), k)
	for i := range got {
		if math.Abs(again[i]-got[i]) > tol {
			t.Fatalf("v=%v k=%v: not idempotent at %d: %v -> %v", v, k, i, got[i], again[i])
		}
	}
}

// TestProjectCappedSimplexMatchesBisection compares the exact walk with the
// bisection reference on random rows shaped like the polish phase's inputs,
// with ties and values on the kinks at 0 and 1 mixed in.
func TestProjectCappedSimplexMatchesBisection(t *testing.T) {
	r := stats.NewRand(7)
	for trial := 0; trial < 2000; trial++ {
		m := 2 + r.IntN(60)
		v := make([]float64, m)
		for i := range v {
			switch r.IntN(6) {
			case 0:
				v[i] = float64(r.IntN(3)) // kinks: 0, 1, 2
			case 1:
				if i > 0 {
					v[i] = v[r.IntN(i)] // ties
				}
			default:
				v[i] = 1.6*r.Float64() - 0.3
			}
		}
		k := float64(m) * r.Float64()
		if r.IntN(4) == 0 {
			k = float64(1 + r.IntN(m-1))
		}
		if k <= 0 {
			continue
		}
		checkProjection(t, v, k, 1e-12)
	}
}

func floatBytes(vals ...float64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, x := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzProjectCappedSimplex: any bytes, read as up to 64 float64 coordinates,
// and any k must project without panicking; finite input must land in the
// box at sum k, match the bisection reference and be a fixed point.
func FuzzProjectCappedSimplex(f *testing.F) {
	f.Add(floatBytes(0.5, 0.5, 0.5, 0.5), 2.0)             // equal row
	f.Add(floatBytes(0.9, 0.2, 0.9, 0.4, 0.2), 2.5)        // ties
	f.Add(floatBytes(0.3, 0.7, 0.1), 0.0)                  // k = 0
	f.Add(floatBytes(0.3, 0.7, 0.1), 3.0)                  // k = m
	f.Add(floatBytes(1, 0, 1, 0, 0.5, 0.5), 3.0)           // feasible row
	f.Add(floatBytes(1e300, 0.3, -1e300, 0.5), 1.5)        // ±1e300
	f.Add(floatBytes(1e300, 1e300, 2e300), 1.25)           // θ far from 0
	f.Add(floatBytes(0.2, math.NaN(), 0.8), 1.0)           // NaN
	f.Add(floatBytes(math.Inf(1), 0.4, math.Inf(-1)), 1.5) // ±Inf
	f.Add(floatBytes(1.2, -0.3, 0.95, 0.05, 0.6, 1.01, 0.33), 3.0)
	f.Fuzz(func(t *testing.T, data []byte, k float64) {
		v := make([]float64, 0, 64)
		for len(data) >= 8 && len(v) < 64 {
			v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		got := ProjectCappedSimplex(slices.Clone(v), k)
		if len(got) != len(v) {
			t.Fatalf("length %d, want %d", len(got), len(v))
		}
		if math.IsNaN(k) || slices.ContainsFunc(v, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
			return
		}
		if k <= 0 || k >= float64(len(v)) {
			want := min(max(k, 0), 1)
			for i, x := range got {
				if x != want {
					t.Fatalf("v=%v k=%v: x[%d]=%v, want boundary %v", v, k, i, x, want)
				}
			}
			return
		}
		checkProjection(t, v, k, 1e-9)
	})
}

// BenchmarkProjectCappedSimplex times one row of a polish-sized block
// (m = 50, k = 4) through the exact projection with a reused sort buffer,
// as the polish phase calls it.
func BenchmarkProjectCappedSimplex(b *testing.B) {
	r := stats.NewRand(3)
	v := make([]float64, 50)
	for i := range v {
		v[i] = 1.6*r.Float64() - 0.3
	}
	row, buf := make([]float64, len(v)), make([]float64, len(v))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(row, v)
		projectCappedSimplex(row, 4, buf)
	}
}
