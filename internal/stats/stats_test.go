package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFenwickBasics(t *testing.T) {
	f := NewFenwick(5)
	f.Set(0, 1)
	f.Set(2, 3)
	f.Set(4, 0.5)
	if got := f.Total(); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("Total = %v, want 4.5", got)
	}
	f.Set(2, 1) // overwrite, not add
	if got := f.Total(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Total after overwrite = %v, want 2.5", got)
	}
	if got := f.Get(2); got != 1 {
		t.Errorf("Get(2) = %v, want 1", got)
	}
	f.Set(0, -3) // negative clamps to zero
	if got := f.Get(0); got != 0 {
		t.Errorf("Get(0) after negative set = %v, want 0", got)
	}
}

func TestFenwickTotalMatchesNaiveSum(t *testing.T) {
	err := quick.Check(func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		f := NewFenwick(len(vals))
		var want float64
		for i, v := range vals {
			v = math.Abs(math.Mod(v, 100))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			f.Set(i, v)
			want += v
		}
		return math.Abs(f.Total()-want) < 1e-6*(1+want)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestFenwickSampleDistribution(t *testing.T) {
	f := NewFenwick(4)
	f.Set(0, 1)
	f.Set(1, 0)
	f.Set(2, 3)
	f.Set(3, 0)
	r := NewRand(1)
	counts := make([]int, 4)
	const trials = 20000
	for i := 0; i < trials; i++ {
		idx, err := f.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Errorf("zero-weight indices sampled: %v", counts)
	}
	got := float64(counts[2]) / float64(counts[0])
	if got < 2.7 || got > 3.3 {
		t.Errorf("weight-3/weight-1 sampling ratio = %.3f, want ≈ 3", got)
	}
}

func TestFenwickSampleEmpty(t *testing.T) {
	f := NewFenwick(3)
	if _, err := f.Sample(NewRand(1)); err == nil {
		t.Error("sampling an all-zero tree succeeded, want error")
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect linear Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti-linear Pearson = %v, want -1", got)
	}
	if got := Pearson(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("constant-series Pearson = %v, want 0", got)
	}
	if got := Pearson(xs, ys[:3]); got != 0 {
		t.Errorf("mismatched-length Pearson = %v, want 0", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	ranks := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Errorf("ranks = %v, want %v", ranks, want)
			break
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{1, 4, 9, 16, 25, 36} // monotone but nonlinear
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("monotone Spearman = %v, want 1", got)
	}
}

func TestTwoSampleTPValue(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5, 1, 2, 3, 4, 5}
	if p := TwoSampleTPValue(same, same); p < 0.9 {
		t.Errorf("identical samples p = %v, want ≈ 1", p)
	}
	lo := []float64{1, 1.1, 0.9, 1, 1.05, 0.95, 1.02, 0.98}
	hi := []float64{3, 3.1, 2.9, 3, 3.05, 2.95, 3.02, 2.98}
	if p := TwoSampleTPValue(lo, hi); p > 0.001 {
		t.Errorf("separated samples p = %v, want ≈ 0", p)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if q := c.Quantile(0); q != 1 {
		t.Errorf("Quantile(0) = %v, want 1", q)
	}
	if q := c.Quantile(1); q != 3 {
		t.Errorf("Quantile(1) = %v, want 3", q)
	}
	if q := c.Quantile(0.5); q < 1 || q > 3 {
		t.Errorf("Quantile(0.5) = %v out of sample range", q)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0.05, 0.15, 0.15, 0.95, -1, 2}, 0, 1, 10)
	if h[0] != 2 { // 0.05 and the clamped -1
		t.Errorf("bin 0 = %d, want 2", h[0])
	}
	if h[1] != 2 {
		t.Errorf("bin 1 = %d, want 2", h[1])
	}
	if h[9] != 2 { // 0.95 and the clamped 2
		t.Errorf("bin 9 = %d, want 2", h[9])
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	r := NewRand(3)
	for _, alpha := range []float64{0.05, 0.3, 1, 5} {
		v := Dirichlet(r, 8, alpha)
		var sum float64
		for _, x := range v {
			if x < 0 {
				t.Fatalf("Dirichlet(α=%v) produced negative coordinate %v", alpha, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("Dirichlet(α=%v) sums to %v", alpha, sum)
		}
	}
}

func TestGammaMean(t *testing.T) {
	r := NewRand(4)
	const shape = 2.5
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		g := Gamma(r, shape)
		if g < 0 {
			t.Fatalf("negative gamma draw %v", g)
		}
		sum += g
	}
	mean := sum / trials
	if mean < shape*0.95 || mean > shape*1.05 {
		t.Errorf("Gamma(%v) sample mean %v, want ≈ %v", shape, mean, shape)
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(100, 1.0)
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("Zipf weights sum %v, want 100", sum)
	}
	if w[0] <= w[50] {
		t.Errorf("Zipf not decreasing: w[0]=%v w[50]=%v", w[0], w[50])
	}
	u := ZipfWeights(10, 0)
	for _, x := range u {
		if math.Abs(x-1) > 1e-12 {
			t.Errorf("Zipf s=0 not uniform: %v", u)
			break
		}
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	r := NewRand(5)
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		b := Beta(r, 2.6, 2.2)
		if b < 0 || b > 1 {
			t.Fatalf("Beta out of range: %v", b)
		}
		sum += b
	}
	mean := sum / trials
	want := 2.6 / (2.6 + 2.2)
	if math.Abs(mean-want) > 0.01 {
		t.Errorf("Beta mean %v, want ≈ %v", mean, want)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Float64() == c.Float64() {
			continue
		}
		same = false
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(-1, 0, 1) != 0 || Clamp(2, 0, 1) != 1 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
