package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
)

// Histogram is a fixed-bucket latency/size distribution with
// deterministic rendering: bucket bounds are chosen at construction, so
// two runs observing the same values render byte-identical output at
// any recording order. It is safe for concurrent use.
//
// Buckets are defined by their upper bounds: value v lands in the first
// bucket whose bound satisfies v <= bound, and values above the last
// bound land in an implicit overflow bucket. Exact minimum, maximum and
// sum are tracked alongside the buckets, so Mean, Min and Max are exact
// while Quantile is bucket-interpolated.
type Histogram struct {
	mu     sync.Mutex
	name   string
	unit   string
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	total  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram creates a histogram named name whose values are in unit
// (a display label, e.g. "µs"), with the given strictly increasing
// upper bucket bounds. It panics on empty or non-increasing bounds.
func NewHistogram(name, unit string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram with no buckets")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s: bounds not increasing at %d", name, i))
		}
	}
	return &Histogram{
		name:   name,
		unit:   unit,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// LinearBuckets returns n upper bounds start, start+width, ...,
// start+(n-1)*width.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start*factor, ...,
// start*factor^(n-1).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Unit returns the display unit label.
func (h *Histogram) Unit() string { return h.unit }

// Observe records one value under the histogram's lock. The simulation
// engine calls it once per observation, as each happens; in the serve
// mix that is about one call per 50 engine events (docs/performance.md,
// "Direct emission").
//
//chimera:hot
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the exact arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the exact smallest observation, or 0 with none.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the exact largest observation, or 0 with none.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) estimated by linear
// interpolation within the bucket holding the target rank — the
// standard fixed-bucket estimator, deterministic for a given bound set.
// The overflow bucket reports the exact maximum. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.total)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(h.bounds) {
			return h.max
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if h.min > lo && h.min <= h.bounds[i] {
			lo = h.min // tighten the first occupied bucket's lower edge
		}
		hi := h.bounds[i]
		if h.max < hi {
			hi = h.max
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return h.max
}

// Buckets returns the bucket upper bounds and their counts (the last
// count is the overflow bucket, bound +Inf).
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...), append([]uint64(nil), h.counts...)
}

// Render writes the histogram as a deterministic text block: a summary
// line (count, mean, p50/p95/p99, min/max) followed by one bar per
// occupied bucket scaled to the largest bucket.
func (h *Histogram) Render(w io.Writer) error {
	h.mu.Lock()
	name, unit := h.name, h.unit
	total, sum := h.total, h.sum
	min, max := h.min, h.max
	bounds := append([]float64(nil), h.bounds...)
	counts := append([]uint64(nil), h.counts...)
	h.mu.Unlock()

	if total == 0 {
		_, err := fmt.Fprintf(w, "%s: no observations\n", name)
		return err
	}
	mean := sum / float64(total)
	if _, err := fmt.Fprintf(w, "%s: n=%d mean=%s%s p50=%s%s p95=%s%s p99=%s%s min=%s%s max=%s%s\n",
		name, total,
		fnum(mean), unit, fnum(h.Quantile(0.50)), unit, fnum(h.Quantile(0.95)), unit,
		fnum(h.Quantile(0.99)), unit, fnum(min), unit, fnum(max), unit); err != nil {
		return err
	}
	var peak uint64
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo := "0"
		if i > 0 {
			lo = fnum(bounds[i-1])
		}
		hi := "+inf"
		if i < len(bounds) {
			hi = fnum(bounds[i])
		}
		bar := strings.Repeat("#", int(math.Ceil(float64(c)/float64(peak)*30)))
		if _, err := fmt.Fprintf(w, "  (%s, %s]%s %-30s %d\n",
			lo, hi, unit, bar, c); err != nil {
			return err
		}
	}
	return nil
}

// String renders the histogram to a string (see Render).
func (h *Histogram) String() string {
	var b strings.Builder
	if err := h.Render(&b); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return b.String()
}

// fnum formats a value compactly and deterministically for histogram
// output: trailing zeros trimmed, at most three decimals.
func fnum(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
