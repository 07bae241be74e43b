package analysis

import (
	"titanre/internal/nvsmi"
	"titanre/internal/stats"
	"titanre/internal/topology"
)

// NodeSBECounts extracts per-node single-bit totals from a machine-wide
// nvidia-smi snapshot — the only place SBE data exists, since SECDED
// corrects them without a console record.
func NodeSBECounts(snap nvsmi.Snapshot) map[topology.NodeID]int64 {
	out := make(map[topology.NodeID]int64)
	for _, d := range snap.Devices {
		if c := d.Counts.TotalSBE(); c > 0 {
			out[d.Node] = c
		}
	}
	return out
}

// TopSBEOffenders returns the k nodes with the highest SBE counts, by
// descending count (ties by node for determinism).
func TopSBEOffenders(counts map[topology.NodeID]int64, k int) []topology.NodeID {
	asU64 := make(map[uint64]int64, len(counts))
	for n, c := range counts {
		asU64[uint64(n)] = c
	}
	top := stats.TopOffenders(asU64, k)
	out := make([]topology.NodeID, len(top))
	for i, kc := range top {
		out[i] = topology.NodeID(kc.Key)
	}
	return out
}

// ExcludeNodes returns counts without the given nodes.
func ExcludeNodes(counts map[topology.NodeID]int64, exclude []topology.NodeID) map[topology.NodeID]int64 {
	drop := make(map[topology.NodeID]bool, len(exclude))
	for _, n := range exclude {
		drop[n] = true
	}
	out := make(map[topology.NodeID]int64, len(counts))
	for n, c := range counts {
		if !drop[n] {
			out[n] = c
		}
	}
	return out
}

// SBESkew is the Fig. 14 analysis: the spatial map of single bit errors
// with no exclusion, with the top-10 offenders removed, and with the
// top-50 removed, plus the affected-card census.
type SBESkew struct {
	All          Grid
	WithoutTop10 Grid
	WithoutTop50 Grid
	// AffectedCards is how many cards ever saw an SBE; AffectedFraction
	// is that over the machine size ("less than 5% of the whole
	// system").
	AffectedCards    int
	AffectedFraction float64
	// Top10Share and Top50Share are the fraction of all SBEs carried by
	// the top offenders.
	Top10Share float64
	Top50Share float64
}

// AnalyzeSBESkew computes the three-panel skew figure from per-node
// counts.
func AnalyzeSBESkew(counts map[topology.NodeID]int64) SBESkew {
	var sk SBESkew
	sk.All = SpatialFromNodeCounts(counts)
	sk.WithoutTop10 = SpatialFromNodeCounts(ExcludeNodes(counts, TopSBEOffenders(counts, 10)))
	sk.WithoutTop50 = SpatialFromNodeCounts(ExcludeNodes(counts, TopSBEOffenders(counts, 50)))
	sk.AffectedCards = len(counts)
	sk.AffectedFraction = float64(len(counts)) / float64(topology.TotalComputeGPUs)
	asU64 := make(map[uint64]int64, len(counts))
	for n, c := range counts {
		asU64[uint64(n)] = c
	}
	sk.Top10Share = stats.SkewRatio(asU64, 10)
	sk.Top50Share = stats.SkewRatio(asU64, 50)
	return sk
}

// HomogeneityScore measures how uniform a grid is: the coefficient of
// variation across populated cabinets (0 = perfectly homogeneous). The
// paper's "removing the top 50 cards produces an almost homogeneous
// distribution" corresponds to this score dropping sharply.
func HomogeneityScore(g Grid) float64 {
	var vals []float64
	for r := 0; r < topology.Rows; r++ {
		for c := 0; c < topology.Columns; c++ {
			vals = append(vals, float64(g[r][c]))
		}
	}
	m := stats.Mean(vals)
	if m == 0 {
		return 0
	}
	return stats.StdDev(vals) / m
}

// SBECageAnalysis is the Fig. 15 pair: total SBEs per cage and distinct
// affected cards per cage, under the three exclusion levels.
type SBECageAnalysis struct {
	All          CageCounts
	WithoutTop10 CageCounts
	WithoutTop50 CageCounts
}

// AnalyzeSBECages computes Fig. 15.
func AnalyzeSBECages(counts map[topology.NodeID]int64) SBECageAnalysis {
	return SBECageAnalysis{
		All:          CageFromNodeCounts(counts),
		WithoutTop10: CageFromNodeCounts(ExcludeNodes(counts, TopSBEOffenders(counts, 10))),
		WithoutTop50: CageFromNodeCounts(ExcludeNodes(counts, TopSBEOffenders(counts, 50))),
	}
}
