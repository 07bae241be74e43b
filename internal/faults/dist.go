// Package faults provides the stochastic machinery behind the synthetic
// Titan field data: random-variate generators, machine-wide arrival
// processes with per-node weighting, rate epochs (the off-the-bus
// soldering fix, the page-retirement driver upgrade), burst/cluster
// processes for application-error storms, per-card susceptibility
// profiles with the heavy-tailed skew the paper observed for single bit
// errors, and parent-to-child cascade rules for follow-on XIDs.
//
// Everything takes an explicit *rand.Rand so a study seed reproduces the
// entire 21-month dataset byte for byte.
package faults

import (
	"math"
	"math/rand"
)

// Exponential draws from an exponential distribution with the given rate
// (events per unit time). The mean is 1/rate.
func Exponential(rng *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / rate
}

// Poisson draws a Poisson-distributed count with the given mean. It uses
// Knuth's product method for small means and a normal approximation with
// continuity correction for large ones.
func Poisson(rng *rand.Rand, mean float64) int64 {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		var k int64
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	k := int64(math.Round(rng.NormFloat64()*math.Sqrt(mean) + mean))
	if k < 0 {
		k = 0
	}
	return k
}

// LogNormal draws from a log-normal distribution with the given location
// and scale of the underlying normal.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// Weibull draws from a Weibull distribution with the given scale and
// shape. Shape < 1 gives the decreasing hazard typical of infant
// mortality; shape > 1 gives wear-out.
func Weibull(rng *rand.Rand, scale, shape float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Geometric draws the number of failures before the first success with
// success probability p; the mean is (1-p)/p.
func Geometric(rng *rand.Rand, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return 0
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Categorical draws an index from a discrete distribution given by
// weights. Non-positive weights are treated as zero. It panics when all
// weights are zero.
func Categorical(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("faults: Categorical with no positive weight")
	}
	u := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if u < w {
			return i
		}
		u -= w
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("faults: unreachable")
}

// WeightedPicker supports O(log n) weighted sampling over a fixed weight
// vector via a cumulative-sum table.
type WeightedPicker struct {
	cum   []float64
	total float64
}

// NewWeightedPicker builds a picker. Non-positive weights get zero
// probability. Total weight must be positive.
func NewWeightedPicker(weights []float64) *WeightedPicker {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	if total <= 0 {
		panic("faults: WeightedPicker with no positive weight")
	}
	return &WeightedPicker{cum: cum, total: total}
}

// Pick draws an index proportionally to its weight.
func (p *WeightedPicker) Pick(rng *rand.Rand) int {
	u := rng.Float64() * p.total
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Total returns the sum of positive weights.
func (p *WeightedPicker) Total() float64 { return p.total }
