package faults

import (
	"math/rand"
	"sort"
	"time"

	"titanre/internal/topology"
)

// Arrival is one fault occurrence produced by a process: a time and the
// node it lands on.
type Arrival struct {
	Time time.Time
	Node topology.NodeID
}

// Epoch is a time window during which a process rate is multiplied by
// Factor. Epochs model operational history: the off-the-bus integration
// issue present until the cards were resoldered in December 2013, the
// driver upgrade that replaced XID 59 halts with XID 62, and the January
// 2014 driver that introduced page retirement.
type Epoch struct {
	Start  time.Time
	End    time.Time
	Factor float64
}

// rateAt returns the multiplicative factor active at time t given a set
// of epochs. Factors of overlapping epochs multiply; time outside every
// epoch has factor 1.
func rateAt(epochs []Epoch, t time.Time) float64 {
	f := 1.0
	for _, e := range epochs {
		if !t.Before(e.Start) && t.Before(e.End) {
			f *= e.Factor
		}
	}
	return f
}

// NodeProcess generates machine-wide fault arrivals: a Poisson process in
// time whose events land on nodes drawn from a weight vector. The weights
// encode spatial structure — thermal acceleration for upper cages,
// per-card susceptibility, or uniformity — while the machine-wide rate
// controls totals.
type NodeProcess struct {
	// RatePerHour is the machine-wide base arrival rate.
	RatePerHour float64
	// Epochs modulate the rate over time (multiplicatively).
	Epochs []Epoch
	// Weights holds one weight per node slot; zero-weight slots never
	// receive events. Length must be topology.TotalNodes.
	Weights []float64
	// Cluster, when positive, turns the process into a Neyman-Scott
	// cluster process: each primary arrival spawns Geometric(1/(1+Cluster))
	// secondary arrivals within ClusterSpread, on independently drawn
	// nodes. The paper notes off-the-bus errors were "mostly clustered".
	Cluster       float64
	ClusterSpread time.Duration

	picker *WeightedPicker
}

// maxEpochFactor returns an upper bound of the modulation factor for
// thinning.
func (p *NodeProcess) maxEpochFactor() float64 {
	// Conservative: product of all factors > 1, times 1.
	f := 1.0
	for _, e := range p.Epochs {
		if e.Factor > 1 {
			f *= e.Factor
		}
	}
	return f
}

// Generate produces every arrival in [start, end), time-ordered. The
// non-homogeneous rate (epochs) is handled by thinning against the
// maximum rate.
func (p *NodeProcess) Generate(rng *rand.Rand, start, end time.Time) []Arrival {
	if p.RatePerHour <= 0 || !end.After(start) {
		return nil
	}
	if p.picker == nil {
		p.picker = NewWeightedPicker(p.Weights)
	}
	maxRate := p.RatePerHour * p.maxEpochFactor()
	var out []Arrival
	t := start
	for {
		gapHours := Exponential(rng, maxRate)
		t = t.Add(time.Duration(gapHours * float64(time.Hour)))
		if !t.Before(end) {
			break
		}
		// Thin to the instantaneous rate.
		if rng.Float64()*maxRate > p.RatePerHour*rateAt(p.Epochs, t) {
			continue
		}
		out = append(out, Arrival{Time: t, Node: topology.NodeID(p.picker.Pick(rng))})
		if p.Cluster > 0 {
			n := Geometric(rng, 1/(1+p.Cluster))
			for i := 0; i < n; i++ {
				dt := time.Duration(rng.Float64() * float64(p.ClusterSpread))
				ct := t.Add(dt)
				if ct.Before(end) {
					out = append(out, Arrival{Time: ct, Node: topology.NodeID(p.picker.Pick(rng))})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// DecayEpochs approximates an exponentially decaying rate elevation as a
// stepwise epoch sequence: the factor starts at amplitude and halves
// every halfLife until it falls below 1.05, after which the base rate
// applies. It models infant mortality in a population that skipped
// acceptance testing.
func DecayEpochs(start time.Time, amplitude float64, halfLife time.Duration) []Epoch {
	var out []Epoch
	t := start
	f := amplitude
	for f > 1.05 {
		out = append(out, Epoch{Start: t, End: t.Add(halfLife), Factor: f})
		t = t.Add(halfLife)
		f /= 2
	}
	return out
}

// UniformComputeWeights returns a weight vector giving every populated
// compute slot weight 1 and service slots weight 0.
func UniformComputeWeights() []float64 {
	w := make([]float64, topology.TotalNodes)
	for i := 0; i < topology.TotalComputeGPUs; i++ {
		w[i] = 1
	}
	return w
}

// ThermalComputeWeights returns compute-slot weights scaled by the
// thermal acceleration model: the hazard doubles every deltaDoubleF
// degrees above the bottom-cage baseline, so upper cages weigh more.
func ThermalComputeWeights(deltaDoubleF float64) []float64 {
	w := make([]float64, topology.TotalNodes)
	for i := 0; i < topology.TotalComputeGPUs; i++ {
		w[i] = topology.ThermalAcceleration(topology.NodeID(i), deltaDoubleF)
	}
	return w
}
