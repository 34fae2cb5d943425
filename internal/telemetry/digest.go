package telemetry

import (
	"math"
	"sort"
)

// compression is the digest's δ. At 128 the sketch holds at most a few
// hundred centroids and keeps rank error well inside 1% at the tails — the
// accuracy bound the unit tests pin against exact sorted quantiles.
const compression = 128

// bufferFactor sizes the unsorted insertion buffer relative to the
// compression: larger buffers amortize the sort+merge pass over more Adds.
const bufferFactor = 4

// centroid is one cluster of the sketch: the weighted mean of its points.
type centroid struct {
	mean   float64
	weight float64
}

// Digest is a merging t-digest (Dunning's variant): an adaptive-resolution
// quantile sketch that keeps tail clusters small (accurate p99s) and middle
// clusters large (bounded memory), with deterministic behaviour — no
// randomness anywhere, so identical Add sequences yield identical sketches.
//
// Adds go to an insertion buffer; when it fills, the buffer is sorted and
// merged with the existing centroids under the k1 scale function
// k(q) = (δ/2π)·asin(2q−1), which bounds each cluster's width by the local
// quantile density. Reads (Quantile, CDF) flush the buffer first.
//
// A Digest is not safe for concurrent use; Window serializes access.
type Digest struct {
	centroids []centroid
	buf       []float64
	pending   []centroid // centroids absorbed via Merge, awaiting a compact
	count     float64
	sum       float64
	min, max  float64
}

// NewDigest returns an empty digest.
func NewDigest() *Digest {
	return &Digest{
		buf: make([]float64, 0, bufferFactor*compression),
		min: math.Inf(1),
		max: math.Inf(-1),
	}
}

// Add inserts one sample. NaN and ±Inf are ignored: a poisoned sample must
// not destroy every future quantile.
func (d *Digest) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	d.buf = append(d.buf, x)
	d.count++
	d.sum += x
	if x < d.min {
		d.min = x
	}
	if x > d.max {
		d.max = x
	}
	if len(d.buf) == cap(d.buf) {
		d.compact()
	}
}

// Merge absorbs o's clusters into d (o is flushed but not modified
// otherwise). Window uses it to combine per-bucket digests into one read
// view.
func (d *Digest) Merge(o *Digest) {
	if o == nil {
		return
	}
	o.compact()
	d.pending = append(d.pending, o.centroids...)
	for _, c := range o.centroids {
		d.count += c.weight
	}
	d.sum += o.sum
	if o.min < d.min {
		d.min = o.min
	}
	if o.max > d.max {
		d.max = o.max
	}
}

// Count reports the number of samples absorbed.
func (d *Digest) Count() uint64 { return uint64(d.count + 0.5) }

// Sum reports the sum of all absorbed samples.
func (d *Digest) Sum() float64 { return d.sum }

// Min reports the smallest absorbed sample (0 when empty).
func (d *Digest) Min() float64 {
	if d.count == 0 {
		return 0
	}
	return d.min
}

// Max reports the largest absorbed sample (0 when empty).
func (d *Digest) Max() float64 {
	if d.count == 0 {
		return 0
	}
	return d.max
}

// Reset empties the digest in place, keeping its buffers.
func (d *Digest) Reset() {
	d.centroids = d.centroids[:0]
	d.buf = d.buf[:0]
	d.pending = d.pending[:0]
	d.count, d.sum = 0, 0
	d.min, d.max = math.Inf(1), math.Inf(-1)
}

// compact merges the insertion buffer and any pending merged clusters into
// the centroid list under the k1 size bound.
func (d *Digest) compact() {
	if len(d.buf) == 0 && len(d.pending) == 0 {
		return
	}
	pts := make([]centroid, 0, len(d.centroids)+len(d.pending)+len(d.buf))
	pts = append(pts, d.centroids...)
	pts = append(pts, d.pending...)
	for _, x := range d.buf {
		pts = append(pts, centroid{mean: x, weight: 1})
	}
	d.buf = d.buf[:0]
	d.pending = d.pending[:0]
	sort.Slice(pts, func(i, j int) bool { return pts[i].mean < pts[j].mean })

	total := 0.0
	for _, c := range pts {
		total += c.weight
	}
	// k1 scale: k(q) = (δ/2π)·asin(2q−1). A cluster may span [q0, q1] only
	// while k(q1) − k(q0) ≤ 1, which keeps tail clusters tiny and middle
	// clusters wide.
	norm := compression / (2 * math.Pi)
	k := func(q float64) float64 { return norm * math.Asin(clamp(2*q-1, -1, 1)) }

	out := make([]centroid, 0, len(d.centroids)+1)
	cur := pts[0]
	wSoFar := 0.0
	kLeft := k(0)
	for _, c := range pts[1:] {
		q1 := (wSoFar + cur.weight + c.weight) / total
		if k(q1)-kLeft <= 1 {
			cur.weight += c.weight
			cur.mean += (c.mean - cur.mean) * c.weight / cur.weight
			continue
		}
		out = append(out, cur)
		wSoFar += cur.weight
		kLeft = k(wSoFar / total)
		cur = c
	}
	d.centroids = append(out, cur)
}

// Quantile estimates the q-quantile (q in [0,1]) by interpolating between
// centroid means, clamped to the observed min/max. An empty digest reports
// 0 — callers treat "no data" as "no latency observed".
func (d *Digest) Quantile(q float64) float64 {
	d.compact()
	if d.count == 0 {
		return 0
	}
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	cs := d.centroids
	if len(cs) == 1 {
		return cs[0].mean
	}
	target := q * d.count
	cum := 0.0
	for i := range cs {
		mid := cum + cs[i].weight/2
		if target < mid {
			if i == 0 {
				// Inside the first half-cluster: interpolate up from min.
				return d.min + (cs[0].mean-d.min)*(target/mid)
			}
			prevMid := cum - cs[i-1].weight/2
			f := (target - prevMid) / (mid - prevMid)
			return cs[i-1].mean + f*(cs[i].mean-cs[i-1].mean)
		}
		cum += cs[i].weight
	}
	// Inside the last half-cluster: interpolate out to max.
	last := cs[len(cs)-1]
	lastMid := d.count - last.weight/2
	f := clamp((target-lastMid)/(d.count-lastMid), 0, 1)
	return last.mean + f*(d.max-last.mean)
}

// CDF estimates the fraction of samples ≤ x — the inverse of Quantile, and
// what the burn-rate checker reads: 1 − CDF(threshold) is the bad-request
// fraction. An empty digest reports 0.
func (d *Digest) CDF(x float64) float64 {
	d.compact()
	if d.count == 0 {
		return 0
	}
	if x < d.min {
		return 0
	}
	if x >= d.max {
		return 1
	}
	cs := d.centroids
	if len(cs) == 1 {
		// x is in [min, max) with a single cluster: uniform within the span.
		return (x - d.min) / (d.max - d.min)
	}
	if x < cs[0].mean {
		if cs[0].mean == d.min {
			return 0
		}
		return (x - d.min) / (cs[0].mean - d.min) * (cs[0].weight / 2) / d.count
	}
	cum := 0.0
	for i := 0; i+1 < len(cs); i++ {
		left, right := cs[i], cs[i+1]
		if x < right.mean {
			// Singleton centroids are point masses sitting exactly at their
			// mean — none of their weight spreads into the gap. This keeps
			// the CDF exact on discrete latency plateaus (small windows where
			// every centroid is a single sample), which the burn-rate
			// breach-boundary tests rely on.
			lo := cum + left.weight/2
			if left.weight == 1 {
				lo = cum + left.weight
			}
			hi := cum + left.weight + right.weight/2
			if right.weight == 1 {
				hi = cum + left.weight
			}
			if right.mean == left.mean {
				return hi / d.count
			}
			f := (x - left.mean) / (right.mean - left.mean)
			return (lo + f*(hi-lo)) / d.count
		}
		cum += left.weight
	}
	last := cs[len(cs)-1]
	if d.max == last.mean {
		return 1
	}
	lastMid := d.count - last.weight/2
	f := (x - last.mean) / (d.max - last.mean)
	return (lastMid + f*(d.count-lastMid)) / d.count
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
