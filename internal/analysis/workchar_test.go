package analysis

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"titanre/internal/scheduler"
	"titanre/internal/topology"
	"titanre/internal/workload"
)

// footprintAlternationRef is FootprintAlternation spelled with a set of
// columns per row per job, sorted and differenced: the reference for
// the column-mask version.
func footprintAlternationRef(records []scheduler.Record) float64 {
	var gapSum float64
	var gapCount int
	for _, r := range records {
		rowCols := make(map[int]map[int]bool)
		for _, n := range r.Nodes.AppendTo(nil) {
			loc := topology.LocationOf(n)
			if rowCols[loc.Row] == nil {
				rowCols[loc.Row] = make(map[int]bool)
			}
			rowCols[loc.Row][loc.Column] = true
		}
		for _, cols := range rowCols {
			var sorted []int
			for c := range cols {
				sorted = append(sorted, c)
			}
			sort.Ints(sorted)
			for i := 1; i < len(sorted); i++ {
				gapSum += float64(sorted[i] - sorted[i-1])
				gapCount++
			}
		}
	}
	if gapCount == 0 {
		return 0
	}
	return gapSum / float64(gapCount)
}

func TestFootprintAlternationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var jobs []workload.Job
	at := t0
	for i := 0; i < 300; i++ {
		at = at.Add(time.Duration(rng.Intn(20)) * time.Minute)
		jobs = append(jobs, workload.Job{Submit: at, Nodes: 1 + rng.Intn(3000), Runtime: time.Duration(1+rng.Intn(8)) * time.Hour})
	}
	for _, policy := range []scheduler.PlacementPolicy{scheduler.TorusFit, scheduler.LinearFit, scheduler.CoolFirstFit} {
		recs := scheduler.Schedule(jobs, policy)
		got, want := FootprintAlternation(recs), footprintAlternationRef(recs)
		if got != want || got == 0 {
			t.Errorf("%v: FootprintAlternation = %v, reference %v", policy, got, want)
		}
	}
}
