package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 of 200 samples is the second-largest value, not a
// measured tail.
const minTail = 10

// pct is one percentile together with the sample count it came from.
type pct struct {
	Value float64
	N     int
	// OK is false when fewer than minTail samples lie beyond the
	// percentile; Value is then meaningless and must not be reported.
	OK bool
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). The
// rank r is the smallest index with at least p·n samples at or below it;
// n−r samples lie beyond it, and at least minTail of them are required.
func percentile(xs []float64, p float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return pct{Value: s[r-1], N: n, OK: n-r >= minTail}
}

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
