package sim

import (
	"runtime"
	"testing"

	"titanre/internal/race"
)

// TestSimRunAllocBudget pins what one simulation of the bench's
// two-month period allocates: its placements are spans over the
// allocator's order and its job samples per-structure sums, so neither
// grows with the nodes a job holds; the scheduler's heap of running jobs
// is typed, not boxed through container/heap, and the event slice is
// sized before the walk. The budget is the measured figure (78.2 MB in
// 142.7k allocations; 109.2 MB in 214.6k while the heap boxed every job
// twice and the event slice grew by appending; 683.6 MB in 514.2k while
// every placement was a node list and every sampled job a map per node)
// plus a quarter.
func TestSimRunAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime's own bookkeeping moves allocation figures")
	}
	cfg := DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 2, 0)
	const maxBytes, maxAllocs = 78_230_000 * 5 / 4, 142_720 * 5 / 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(cfg)
	runtime.ReadMemStats(&after)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("two-month sim.Run: %d bytes in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("two-month sim.Run allocated %d bytes in %d allocations; the budget is %d bytes, %d allocations", bytes, allocs, maxBytes, maxAllocs)
	}
}
