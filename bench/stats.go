//go:build linux

package main

import (
	"math"
	"sort"
)

// summary is the shape every timing is reported in: the sample count, the
// median, the percentiles the sample supports, and the extremes.
type summary struct {
	N                       int
	Min, P50, P95, P99, Max float64
}

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank rule: the smallest value with at least p% of
// the sample at or below it. An empty slice yields NaN so a missing
// measurement can never pass for a fast one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the mean of the two middle values for an even count, so a
// two-rep run reports the midpoint rather than the faster rep.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// best is how a run reduces its repetitions to one figure: the fastest
// of them (the lowest time or cost, the highest rate). The host's
// interference only ever slows a repetition down, in spells that last
// from a second to minutes, so everything but the fast edge of a run's
// repetitions says more about the neighbours than about the code. Replayed
// over recorded repetitions of one build, windows of 17 at a time, the
// fastest spread 3% between windows in a slow spell where the fast
// quartile spread 9% and the median 10%; in calm weather all three spread
// 4-6%. Median and maximum are printed beside it: a change that makes
// some repetitions slow and leaves the fastest alone shows there.
func best(values []float64, higherIsBetter bool) float64 {
	s := summarize(values)
	if higherIsBetter {
		return s.Max
	}
	return s.Min
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		nan := math.NaN()
		return summary{Min: nan, P50: nan, P95: nan, P99: nan, Max: nan}
	}
	s := sortedCopy(values)
	return summary{N: len(s), Min: s[0], P50: median(s), P95: percentile(s, 95), P99: percentile(s, 99), Max: s[len(s)-1]}
}

// relDiff is how much worse b is than a as a share of a, signed so that
// positive always means "worse" whichever direction is better.
func relDiff(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return math.NaN()
	}
	if higherIsBetter {
		return (a - b) / a
	}
	return (b - a) / a
}

// iqrShare is the spread the driver accepts a benchmark on: the distance
// between the first and third quartile as a share of the median, with
// the quartiles placed as Python's statistics.quantiles(values, n=4)
// places them (exclusive method).
func iqrShare(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := sortedCopy(values)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}
