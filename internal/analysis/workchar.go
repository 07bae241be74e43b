package analysis

import (
	"math/bits"
	"sort"

	"titanre/internal/scheduler"
	"titanre/internal/stats"
	"titanre/internal/topology"
	"titanre/internal/workload"
)

// sortByKey orders index slice order by ascending key value.
func sortByKey(order []int, key []float64) {
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
}

func sortUserIDs(ids []workload.UserID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// FootprintAlternation quantifies Fig. 12's alternating-cabinet pattern
// at its source: for every job footprint, look at the physical cabinet
// columns it occupies within each row and average the gap between
// consecutive occupied columns. Folded-torus placement puts consecutive
// allocation units on alternating physical cabinets, so the mean gap
// approaches 2; linear (physically contiguous) placement gives 1. Rows
// with fewer than two occupied columns are skipped.
func FootprintAlternation(records []scheduler.Record) float64 {
	var gapSum float64
	var gapCount int
	for _, r := range records {
		// cols[row] has bit c set when the job occupies column c there;
		// a row's gaps then sum to its last column less its first.
		var cols [topology.Rows]uint32
		for ri := range r.Nodes.NumRuns() {
			for _, n := range r.Nodes.Run(ri) {
				loc := topology.LocationOf(n)
				cols[loc.Row] |= 1 << loc.Column
			}
		}
		for _, m := range cols {
			if k := bits.OnesCount32(m); k >= 2 {
				gapSum += float64(bits.Len32(m) - 1 - bits.TrailingZeros32(m))
				gapCount += k - 1
			}
		}
	}
	if gapCount == 0 {
		return 0
	}
	return gapSum / float64(gapCount)
}

// WorkloadCharacteristics is the Fig. 21 analysis: how memory, node
// counts, GPU core hours, and wall-clock time relate across the job
// population. Series are mean-normalized, matching the paper's plots.
type WorkloadCharacteristics struct {
	// Sorted by GPU core hours (panels a, b).
	ByCoreHours struct {
		CoreHours []float64
		MaxMem    []float64
		TotalMem  []float64
		Nodes     []float64
	}
	// Sorted by node count (panels c, d).
	ByNodes struct {
		Nodes     []float64
		WallClock []float64
		MaxMem    []float64
	}
	// Headline checks of Observation 14.
	TopMemJobsBelowAvgCoreHours bool
	SmallJobAmongLongest        bool
	NodesCoreHoursSpearman      float64
}

// CharacterizeWorkload computes Fig. 21 from the placed job log.
func CharacterizeWorkload(records []scheduler.Record) WorkloadCharacteristics {
	var wc WorkloadCharacteristics
	n := len(records)
	if n == 0 {
		return wc
	}
	core := make([]float64, n)
	maxMem := make([]float64, n)
	totMem := make([]float64, n)
	nodes := make([]float64, n)
	wall := make([]float64, n)
	for i, r := range records {
		core[i] = r.GPUCoreHours()
		maxMem[i] = r.Spec.MaxMemoryGB()
		totMem[i] = r.Spec.TotalMemoryGBh()
		nodes[i] = float64(r.Nodes.Len())
		wall[i] = r.Runtime().Hours()
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sortByKey(order, core)
	for _, idx := range order {
		wc.ByCoreHours.CoreHours = append(wc.ByCoreHours.CoreHours, core[idx])
		wc.ByCoreHours.MaxMem = append(wc.ByCoreHours.MaxMem, maxMem[idx])
		wc.ByCoreHours.TotalMem = append(wc.ByCoreHours.TotalMem, totMem[idx])
		wc.ByCoreHours.Nodes = append(wc.ByCoreHours.Nodes, nodes[idx])
	}
	wc.ByCoreHours.CoreHours = stats.NormalizeToMean(wc.ByCoreHours.CoreHours)
	wc.ByCoreHours.MaxMem = stats.NormalizeToMean(wc.ByCoreHours.MaxMem)
	wc.ByCoreHours.TotalMem = stats.NormalizeToMean(wc.ByCoreHours.TotalMem)
	wc.ByCoreHours.Nodes = stats.NormalizeToMean(wc.ByCoreHours.Nodes)

	order2 := make([]int, n)
	for i := range order2 {
		order2[i] = i
	}
	sortByKey(order2, nodes)
	for _, idx := range order2 {
		wc.ByNodes.Nodes = append(wc.ByNodes.Nodes, nodes[idx])
		wc.ByNodes.WallClock = append(wc.ByNodes.WallClock, wall[idx])
		wc.ByNodes.MaxMem = append(wc.ByNodes.MaxMem, maxMem[idx])
	}
	wc.ByNodes.Nodes = stats.NormalizeToMean(wc.ByNodes.Nodes)
	wc.ByNodes.WallClock = stats.NormalizeToMean(wc.ByNodes.WallClock)
	wc.ByNodes.MaxMem = stats.NormalizeToMean(wc.ByNodes.MaxMem)

	// Observation 14 checks.
	memThresh := stats.Quantile(totMem, 0.99)
	meanCore := stats.Mean(core)
	var topMemCore []float64
	for i := range totMem {
		if totMem[i] >= memThresh {
			topMemCore = append(topMemCore, core[i])
		}
	}
	wc.TopMemJobsBelowAvgCoreHours = len(topMemCore) > 0 && stats.Mean(topMemCore) < meanCore

	wallThresh := stats.Quantile(wall, 0.99)
	for i := range wall {
		if wall[i] >= wallThresh && nodes[i] <= 256 {
			wc.SmallJobAmongLongest = true
			break
		}
	}
	if c, err := stats.Spearman(nodes, core); err == nil {
		wc.NodesCoreHoursSpearman = c.Coefficient
	}
	return wc
}

// NetworkCompactness measures how tightly jobs sit on the Gemini torus:
// the mean over jobs of the mean pairwise router-hop distance within the
// allocation. Titan allocates along the torus precisely to keep this
// small; the linear (physically contiguous) ablation stretches jobs
// across the folded Y dimension.
func NetworkCompactness(records []scheduler.Record) float64 {
	var sum float64
	var n int
	var nodes []topology.NodeID
	for _, r := range records {
		if r.Nodes.Len() < 2 {
			continue
		}
		nodes = r.Nodes.AppendTo(nodes[:0])
		sum += topology.MeanPairwiseHops(nodes, 64)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
