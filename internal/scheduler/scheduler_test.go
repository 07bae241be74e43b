package scheduler

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"titanre/internal/topology"
	"titanre/internal/workload"
)

func TestAllocatorCapacity(t *testing.T) {
	for _, pol := range []PlacementPolicy{TorusFit, LinearFit, CoolFirstFit} {
		a := NewAllocator(pol)
		if a.Capacity() != topology.TotalComputeGPUs {
			t.Errorf("policy %d capacity = %d, want %d", pol, a.Capacity(), topology.TotalComputeGPUs)
		}
		if a.FreeCount() != a.Capacity() {
			t.Errorf("fresh allocator should be fully free")
		}
	}
}

func TestAllocatorAllocRelease(t *testing.T) {
	a := NewAllocator(TorusFit)
	p, _ := a.Alloc(100)
	nodes := p.AppendTo(nil)
	if len(nodes) != 100 || p.Len() != 100 {
		t.Fatalf("allocated %d (Len %d), want 100", len(nodes), p.Len())
	}
	if a.FreeCount() != a.Capacity()-100 {
		t.Errorf("free count = %d", a.FreeCount())
	}
	seen := map[topology.NodeID]bool{}
	for _, n := range nodes {
		if seen[n] {
			t.Fatal("duplicate node in allocation")
		}
		seen[n] = true
		if int(n) >= topology.TotalComputeGPUs {
			t.Fatal("allocated a service slot")
		}
	}
	a.Release(p)
	if a.FreeCount() != a.Capacity() {
		t.Errorf("free count after release = %d", a.FreeCount())
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(TorusFit)
	all, _ := a.Alloc(a.Capacity())
	if all.Len() != a.Capacity() {
		t.Fatalf("full allocation got %d", all.Len())
	}
	if _, ok := a.Alloc(1); ok {
		t.Error("allocation from empty pool should fail")
	}
	if _, ok := a.Alloc(0); ok {
		t.Error("zero-size allocation should fail")
	}
	a.Release(all)
	if len(a.free) == 0 {
		t.Error("release should restore free segments")
	}
}

func TestAllocatorMerging(t *testing.T) {
	a := NewAllocator(LinearFit)
	x, _ := a.Alloc(10)
	y, _ := a.Alloc(10)
	segsBefore := len(a.free)
	a.Release(x)
	a.Release(y)
	if len(a.free) != segsBefore {
		t.Errorf("adjacent releases should merge back: %d segments, want %d",
			len(a.free), segsBefore)
	}
	if a.FreeCount() != a.Capacity() {
		t.Error("free count wrong after merge")
	}
}

func TestTorusAllocationAlternatesCabinets(t *testing.T) {
	a := NewAllocator(TorusFit)
	// A two-cabinet-sized job placed on an empty machine must land on
	// alternating physical cabinets (columns 0 and 2), not adjacent ones.
	nodes, _ := a.Alloc(2 * topology.NodesPerCabinet)
	cols := map[int]bool{}
	for _, n := range nodes.AppendTo(nil) {
		cols[topology.LocationOf(n).Column] = true
	}
	if !cols[0] || !cols[2] || cols[1] {
		t.Errorf("torus placement columns = %v, want {0,2} without 1", cols)
	}

	b := NewAllocator(LinearFit)
	nodes, _ = b.Alloc(2 * topology.NodesPerCabinet)
	cols = map[int]bool{}
	for _, n := range nodes.AppendTo(nil) {
		cols[topology.LocationOf(n).Column] = true
	}
	if !cols[0] || !cols[1] {
		t.Errorf("linear placement columns = %v, want {0,1}", cols)
	}
}

func TestAllocatorScatteredFallback(t *testing.T) {
	a := NewAllocator(LinearFit)
	// Fragment the pool: allocate pairs and free every other one.
	var kept, freed []Placement
	for i := 0; i < 100; i++ {
		x, _ := a.Alloc(50)
		y, _ := a.Alloc(50)
		kept = append(kept, x)
		freed = append(freed, y)
	}
	for _, f := range freed {
		a.Release(f)
	}
	// Now no contiguous run of 5000 exists near the front, but 5000
	// scattered slots do.
	nodes, _ := a.Alloc(5000)
	if nodes.Len() != 5000 {
		t.Fatalf("scattered allocation got %d, want 5000", nodes.Len())
	}
	seen := map[topology.NodeID]bool{}
	for _, n := range nodes.AppendTo(nil) {
		if seen[n] {
			t.Fatal("duplicate in scattered allocation")
		}
		seen[n] = true
	}
	for _, k := range kept {
		for _, n := range k.AppendTo(nil) {
			if seen[n] {
				t.Fatal("scattered allocation reused a held node")
			}
		}
	}
}

func TestCoolFirstFitFillsBottomCages(t *testing.T) {
	a := NewAllocator(CoolFirstFit)
	// The first third of the machine must be entirely cage 0.
	nodes, _ := a.Alloc(topology.TotalComputeGPUs / 3)
	for _, n := range nodes.AppendTo(nil) {
		if topology.CageOf(n) != 0 {
			t.Fatalf("node %d in cage %d during cool-first fill", n, topology.CageOf(n))
		}
	}
	// The next allocation starts on cage 1.
	next, _ := a.Alloc(100)
	for _, n := range next.AppendTo(nil) {
		if topology.CageOf(n) == 2 {
			t.Fatalf("top cage reached while middle cage has room")
		}
	}
}

func TestCoolFirstPreservesTorusLocalityWithinCage(t *testing.T) {
	a := NewAllocator(CoolFirstFit)
	nodes, _ := a.Alloc(64)
	// Within cage 0 the order follows the torus: consecutive nodes stay
	// in the same cabinet run (cage-0 rows of the torus).
	for _, n := range nodes.AppendTo(nil) {
		if topology.CageOf(n) != 0 {
			t.Fatal("expected cage 0")
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []PlacementPolicy{TorusFit, LinearFit, CoolFirstFit} {
		if p.String() == "" || p.String() == fmt.Sprintf("PlacementPolicy(%d)", int(p)) {
			t.Errorf("policy %d missing name", int(p))
		}
	}
	if PlacementPolicy(99).String() != "PlacementPolicy(99)" {
		t.Error("unknown policy string wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown policy order should panic")
		}
	}()
	NewAllocator(PlacementPolicy(99))
}

func mkJob(user int, submit time.Time, nodes int, runtime time.Duration) workload.Job {
	return workload.Job{
		User: workload.UserID(user), Submit: submit,
		Nodes: nodes, Runtime: runtime,
		MaxMemPerNodeGB: 1, AvgMemPerNodeGB: 0.5,
	}
}

func TestScheduleBasic(t *testing.T) {
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	jobs := []workload.Job{
		mkJob(1, t0, 100, time.Hour),
		mkJob(2, t0.Add(time.Minute), 200, 2*time.Hour),
	}
	recs := Schedule(jobs, TorusFit)
	if len(recs) != 2 {
		t.Fatalf("scheduled %d jobs", len(recs))
	}
	if !recs[0].Start.Equal(t0) || !recs[0].End.Equal(t0.Add(time.Hour)) {
		t.Errorf("job 1 timing wrong: %v-%v", recs[0].Start, recs[0].End)
	}
	if recs[0].Nodes.Len() != 100 || recs[1].Nodes.Len() != 200 {
		t.Error("node counts wrong")
	}
	if recs[0].ID == recs[1].ID {
		t.Error("job IDs must be unique")
	}
	if recs[0].GPUCoreHours() != 100 {
		t.Errorf("core-hours = %v", recs[0].GPUCoreHours())
	}
}

func TestScheduleQueueing(t *testing.T) {
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	cap := topology.TotalComputeGPUs
	jobs := []workload.Job{
		mkJob(1, t0, cap, time.Hour),                  // fills the machine
		mkJob(2, t0.Add(time.Minute), 100, time.Hour), // must wait
	}
	recs := Schedule(jobs, TorusFit)
	if len(recs) != 2 {
		t.Fatalf("scheduled %d jobs", len(recs))
	}
	if !recs[1].Start.Equal(recs[0].End) {
		t.Errorf("queued job started %v, want %v (when capacity freed)", recs[1].Start, recs[0].End)
	}
}

func TestScheduleDropsImpossibleJobs(t *testing.T) {
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	jobs := []workload.Job{mkJob(1, t0, topology.TotalComputeGPUs+1, time.Hour)}
	if recs := Schedule(jobs, TorusFit); len(recs) != 0 {
		t.Errorf("impossible job scheduled: %v", recs)
	}
}

func TestScheduleNoOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	var jobs []workload.Job
	cur := t0
	for i := 0; i < 400; i++ {
		cur = cur.Add(time.Duration(rng.Intn(30)) * time.Minute)
		jobs = append(jobs, mkJob(i%17, cur, 1+rng.Intn(4000), time.Duration(1+rng.Intn(10))*time.Hour))
	}
	recs := Schedule(jobs, TorusFit)
	if len(recs) != len(jobs) {
		t.Fatalf("scheduled %d of %d", len(recs), len(jobs))
	}
	// No two concurrent jobs share a node.
	type span struct {
		start, end time.Time
		id         int
	}
	perNode := map[topology.NodeID][]span{}
	for i, r := range recs {
		if r.Start.Before(r.Spec.Submit) {
			t.Fatalf("job %d started before submission", i)
		}
		for _, n := range r.Nodes.AppendTo(nil) {
			perNode[n] = append(perNode[n], span{r.Start, r.End, i})
		}
	}
	for n, spans := range perNode {
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.start.Before(b.end) && b.start.Before(a.end) {
					t.Fatalf("node %d double-booked by jobs %d and %d", n, a.id, b.id)
				}
			}
		}
	}
}

// refHeap is endHeap under container/heap, the reference its pop order
// is held to.
type refHeap []runningJob

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].end.Before(h[j].end) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(runningJob)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestEndHeapPopsLikeContainerHeap: pushes and pops interleaved, ends
// drawn from a handful of instants so ties are everywhere — the typed
// heap hands jobs out in exactly container/heap's order, which is the
// order Schedule frees and backfills in.
func TestEndHeapPopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var got endHeap
	var want refHeap
	t0 := time.Unix(0, 0)
	for i := 0; i < 20000; i++ {
		if rng.Intn(3) > 0 || len(got) == 0 {
			// The job's identity rides in its placement's span start.
			rj := runningJob{end: t0.Add(time.Duration(rng.Intn(6)) * time.Second), nodes: Placement{spans: []span{{start: int32(i)}}}}
			got.push(rj)
			heap.Push(&want, rj)
			continue
		}
		g, w := got.pop(), heap.Pop(&want).(runningJob)
		if !g.end.Equal(w.end) || g.nodes.spans[0].start != w.nodes.spans[0].start {
			t.Fatalf("pop %d: job %d ending %v, container/heap pops job %d ending %v", i, g.nodes.spans[0].start, g.end, w.nodes.spans[0].start, w.end)
		}
	}
}
