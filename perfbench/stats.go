package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile. With fewer samples the tail is reported at the highest
// percentile the sample supports, never at one it cannot.
const minBeyond = 10

// sample is a set of measurements of one quantity.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// rank returns the nearest-rank q-quantile of sorted values: the
// smallest value with at least q of the sample at or below it.
func (s sample) rank(q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the nearest-rank median; 0 for an empty sample.
func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sorted().rank(0.5)
}

// tail returns the nearest-rank percentile closest to want that still
// leaves at least minBeyond samples above it, and the quantile it used.
// A sample too small to put that percentile at or above the median
// supports no tail at all.
func (s sample) tail(want float64) (value, q float64, err error) {
	n := len(s)
	if n < 2*minBeyond {
		return 0, 0, fmt.Errorf("%d samples support no tail percentile (need %d)", n, 2*minBeyond)
	}
	srt := s.sorted()
	// Index i leaves n-1-i samples above it.
	i := int(math.Ceil(want*float64(n))) - 1
	if maxI := n - 1 - minBeyond; i > maxI {
		i = maxI
	}
	if i < 0 {
		i = 0
	}
	return srt[i], float64(i+1) / float64(n), nil
}

// tailOrZero is tail for per-layer metrics, which report 0 when the
// layer ran too few times to have a tail.
func (s sample) tailOrZero(want float64) float64 {
	v, _, err := s.tail(want)
	if err != nil {
		return 0
	}
	return v
}

// sum adds the values.
func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// mean is the arithmetic mean; 0 for an empty sample.
func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// geomean is the geometric mean. Every request or attack in a run moves
// it by its own share, so it follows a uniform speed-up or slow-down
// like the median does, but it does not jump when the values near the
// middle of a spread-out sample swap order, as the median of a
// workload that mixes fast and slow requests does from run to run. It
// is an error for the sample to be empty or to hold a value that is not
// positive.
func (s sample) geomean() (float64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("geometric mean of no values")
	}
	logs := 0.0
	for _, v := range s.sorted() { // sorted: the sum does not depend on the input order
		if !(v > 0) {
			return 0, fmt.Errorf("geometric mean of a value that is not positive (%v)", v)
		}
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(s))), nil
}

// ratio divides, returning 0 for an empty (zero or negative) base.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
