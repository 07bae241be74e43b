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
// space is a sorted list of disjoint segments over dense positions.
type Allocator struct {
	Policy PlacementPolicy
	// order[pos] is the node at dense position pos; pos[n] inverts it.
	order []topology.NodeID
	pos   []int32
	free  []segment // sorted by start, disjoint, non-adjacent
	inUse int
}

type segment struct {
	start, length int
}

// NewAllocator returns an allocator over every populated compute slot.
func NewAllocator(policy PlacementPolicy) *Allocator {
	a := &Allocator{Policy: policy, order: policy.order()}
	a.pos = make([]int32, topology.TotalNodes)
	for i := range a.pos {
		a.pos[i] = -1
	}
	for p, n := range a.order {
		a.pos[n] = int32(p)
	}
	a.free = []segment{{start: 0, length: len(a.order)}}
	return a
}

// Capacity returns the total number of allocatable slots.
func (a *Allocator) Capacity() int { return len(a.order) }

// FreeCount returns the number of currently free slots.
func (a *Allocator) FreeCount() int { return len(a.order) - a.inUse }

// Alloc reserves n nodes and returns them, or nil when fewer than n slots
// are free. It first looks for the first single free run of length >= n;
// when none exists the request is satisfied by scattered slots in linear
// order.
func (a *Allocator) Alloc(n int) []topology.NodeID {
	if n <= 0 || n > a.FreeCount() {
		return nil
	}
	// First-fit contiguous.
	for i := range a.free {
		if a.free[i].length >= n {
			return a.take(i, n)
		}
	}
	// Scattered: peel from the front until satisfied.
	out := make([]topology.NodeID, 0, n)
	for n > 0 {
		take := a.free[0].length
		if take > n {
			take = n
		}
		out = append(out, a.take(0, take)...)
		n -= take
	}
	return out
}

// take removes count slots from the front of segment i and returns their
// nodes.
func (a *Allocator) take(i, count int) []topology.NodeID {
	seg := &a.free[i]
	out := make([]topology.NodeID, count)
	for k := 0; k < count; k++ {
		out[k] = a.order[seg.start+k]
	}
	seg.start += count
	seg.length -= count
	if seg.length == 0 {
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.inUse += count
	return out
}

// Release returns nodes to the free pool, merging adjacent segments.
func (a *Allocator) Release(nodes []topology.NodeID) {
	if len(nodes) == 0 {
		return
	}
	positions := make([]int, len(nodes))
	for i, n := range nodes {
		positions[i] = int(a.pos[n])
	}
	sort.Ints(positions)
	// Coalesce the released positions into runs, then insert each run.
	for i := 0; i < len(positions); {
		j := i
		for j+1 < len(positions) && positions[j+1] == positions[j]+1 {
			j++
		}
		a.insert(segment{start: positions[i], length: j - i + 1})
		i = j + 1
	}
	a.inUse -= len(positions)
}

func (a *Allocator) insert(s segment) {
	// Find insertion point.
	i := sort.Search(len(a.free), func(k int) bool { return a.free[k].start > s.start })
	a.free = append(a.free, segment{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Merge with previous.
	if i > 0 && a.free[i-1].start+a.free[i-1].length == a.free[i].start {
		a.free[i-1].length += a.free[i].length
		a.free = append(a.free[:i], a.free[i+1:]...)
		i--
	}
	// Merge with next.
	if i+1 < len(a.free) && a.free[i].start+a.free[i].length == a.free[i+1].start {
		a.free[i].length += a.free[i+1].length
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
}
