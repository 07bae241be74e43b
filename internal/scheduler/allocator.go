// Package scheduler is the batch system substrate: a segment allocator
// that places jobs along a configurable linearization of the machine (the
// folded torus by default — the reason application errors paint
// alternating cabinets on the floor map, paper Fig. 12) and an
// event-driven FIFO-with-backfill scheduler that turns the workload
// generator's job stream into placed job records with start and end
// times.
package scheduler

import (
	"fmt"
	"sort"

	"titanre/internal/topology"
)

// PlacementPolicy selects the linear order the allocator hands nodes out
// in.
type PlacementPolicy int

const (
	// TorusFit allocates along the folded-torus linearization: node
	// lists compact on the Gemini network, alternating across physical
	// cabinets. This is Titan's production behaviour.
	TorusFit PlacementPolicy = iota
	// LinearFit is the ablation policy: dense node-id order (physically
	// contiguous cabinets), used to show the alternating-cabinet
	// pattern comes from the folded torus.
	LinearFit
	// CoolFirstFit implements Observation 4's operational idea
	// ("improved job scheduling for large GPU jobs at OLCF"): fill the
	// cooler bottom cages first, keeping jobs away from the
	// failure-prone top cages while the machine has headroom. Within a
	// cage level it follows torus order, preserving network locality.
	CoolFirstFit
)

func (p PlacementPolicy) String() string {
	switch p {
	case TorusFit:
		return "folded-torus first fit"
	case LinearFit:
		return "linear first fit"
	case CoolFirstFit:
		return "cool-cage-first fit"
	default:
		return fmt.Sprintf("PlacementPolicy(%d)", int(p))
	}
}

// order returns the allocation order for a policy: a permutation of every
// populated compute slot.
func (p PlacementPolicy) order() []topology.NodeID {
	var out []topology.NodeID
	switch p {
	case TorusFit:
		for idx := 0; idx < topology.TotalNodes; idx++ {
			n := topology.NodeAtTorusIndex(idx)
			if int(n) < topology.TotalComputeGPUs {
				out = append(out, n)
			}
		}
	case LinearFit:
		for id := 0; id < topology.TotalComputeGPUs; id++ {
			out = append(out, topology.NodeID(id))
		}
	case CoolFirstFit:
		for idx := 0; idx < topology.TotalNodes; idx++ {
			n := topology.NodeAtTorusIndex(idx)
			if int(n) < topology.TotalComputeGPUs {
				out = append(out, n)
			}
		}
		sort.SliceStable(out, func(i, j int) bool {
			return topology.CageOf(out[i]) < topology.CageOf(out[j])
		})
	default:
		panic(fmt.Sprintf("scheduler: unknown policy %d", int(p)))
	}
	return out
}

// Allocator hands out node sets along its policy's linear order. Free
// space is a sorted list of disjoint spans over dense positions, and a
// placement is the spans it took: allocation and release are span
// arithmetic, never a per-node copy.
type Allocator struct {
	Policy PlacementPolicy
	// order[pos] is the node at dense position pos; every placement
	// shares it.
	order []topology.NodeID
	free  []span // sorted by start, disjoint, non-adjacent
	inUse int
}

// NewAllocator returns an allocator over every populated compute slot.
func NewAllocator(policy PlacementPolicy) *Allocator {
	a := &Allocator{Policy: policy, order: policy.order()}
	a.free = []span{{start: 0, length: int32(len(a.order))}}
	return a
}

// Capacity returns the total number of allocatable slots.
func (a *Allocator) Capacity() int { return len(a.order) }

// FreeCount returns the number of currently free slots.
func (a *Allocator) FreeCount() int { return len(a.order) - a.inUse }

// Alloc reserves n nodes and returns their placement; ok is false when
// fewer than n slots are free. It first looks for the first single free
// span of length >= n; when none exists the request is satisfied by
// scattered slots in linear order.
func (a *Allocator) Alloc(n int) (p Placement, ok bool) {
	if n <= 0 || n > a.FreeCount() {
		return Placement{}, false
	}
	p.order = a.order
	// First-fit contiguous.
	for i := range a.free {
		if int(a.free[i].length) >= n {
			p.spans = []span{a.take(i, int32(n))}
			return p, true
		}
	}
	// Scattered: peel from the front until satisfied.
	for n > 0 {
		take := min(int(a.free[0].length), n)
		p.spans = append(p.spans, a.take(0, int32(take)))
		n -= take
	}
	return p, true
}

// take removes count slots from the front of free span i and returns
// them.
func (a *Allocator) take(i int, count int32) span {
	f := &a.free[i]
	out := span{start: f.start, length: count}
	f.start += count
	f.length -= count
	if f.length == 0 {
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.inUse += int(count)
	return out
}

// Release returns a placement this allocator made to the free pool,
// merging adjacent spans.
func (a *Allocator) Release(p Placement) {
	for _, s := range p.spans {
		a.insert(s)
		a.inUse -= int(s.length)
	}
}

func (a *Allocator) insert(s span) {
	// Find insertion point.
	i := sort.Search(len(a.free), func(k int) bool { return a.free[k].start > s.start })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Merge with previous.
	if i > 0 && a.free[i-1].end() == a.free[i].start {
		a.free[i-1].length += a.free[i].length
		a.free = append(a.free[:i], a.free[i+1:]...)
		i--
	}
	// Merge with next.
	if i+1 < len(a.free) && a.free[i].end() == a.free[i+1].start {
		a.free[i].length += a.free[i+1].length
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
}
