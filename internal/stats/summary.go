package stats

import (
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// when fewer than two samples are given.
func StdDev(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	m := Mean(x)
	var ss float64
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics. Returns 0 for an empty slice.
func Quantile(x []float64, q float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// NormalizeToMean divides every value by the slice mean, the normalization
// the paper applies before plotting resource-vs-SBE curves ("values have
// been normalized to average value of the respective metrics"). A zero
// mean leaves the slice unchanged.
func NormalizeToMean(x []float64) []float64 {
	out := make([]float64, len(x))
	m := Mean(x)
	if m == 0 {
		copy(out, x)
		return out
	}
	for i, v := range x {
		out[i] = v / m
	}
	return out
}

// MTBF estimates the mean time between failures from event timestamps over
// an observation window. It divides the window length by the event count
// (the estimator the paper's "one DBE every ~160 hours" uses). It returns
// ErrInsufficientData when no events occurred.
func MTBF(times []time.Time, windowStart, windowEnd time.Time) (time.Duration, error) {
	if len(times) == 0 || !windowEnd.After(windowStart) {
		return 0, ErrInsufficientData
	}
	window := windowEnd.Sub(windowStart)
	return window / time.Duration(len(times)), nil
}

// InterArrivals returns the gaps between consecutive timestamps. The input
// is sorted internally; the result has len(times)-1 entries.
func InterArrivals(times []time.Time) []time.Duration {
	if len(times) < 2 {
		return nil
	}
	s := append([]time.Time(nil), times...)
	sort.Slice(s, func(i, j int) bool { return s[i].Before(s[j]) })
	out := make([]time.Duration, len(s)-1)
	for i := 1; i < len(s); i++ {
		out[i-1] = s[i].Sub(s[i-1])
	}
	return out
}
