package scheduler

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"titanre/internal/topology"
)

// refAllocator is the allocator as it was before placements became
// spans: every allocation copies its nodes out of the order, and a
// release sorts their positions and coalesces them. It is the reference
// the span allocator must reproduce node for node.
type refAllocator struct {
	order []topology.NodeID
	pos   []int32
	free  []span
	inUse int
}

func newRefAllocator(policy PlacementPolicy) *refAllocator {
	a := &refAllocator{order: policy.order(), pos: make([]int32, topology.TotalNodes)}
	for p, n := range a.order {
		a.pos[n] = int32(p)
	}
	a.free = []span{{0, int32(len(a.order))}}
	return a
}

func (a *refAllocator) alloc(n int) []topology.NodeID {
	if n <= 0 || n > len(a.order)-a.inUse {
		return nil
	}
	for i := range a.free {
		if int(a.free[i].length) >= n {
			return a.take(i, n)
		}
	}
	out := make([]topology.NodeID, 0, n)
	for n > 0 {
		take := min(int(a.free[0].length), n)
		out = append(out, a.take(0, take)...)
		n -= take
	}
	return out
}

func (a *refAllocator) take(i, count int) []topology.NodeID {
	seg := &a.free[i]
	out := append([]topology.NodeID(nil), a.order[seg.start:int(seg.start)+count]...)
	seg.start += int32(count)
	seg.length -= int32(count)
	if seg.length == 0 {
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.inUse += count
	return out
}

func (a *refAllocator) release(nodes []topology.NodeID) {
	positions := make([]int, len(nodes))
	for i, n := range nodes {
		positions[i] = int(a.pos[n])
	}
	sort.Ints(positions)
	for i := 0; i < len(positions); {
		j := i
		for j+1 < len(positions) && positions[j+1] == positions[j]+1 {
			j++
		}
		a.insert(span{int32(positions[i]), int32(j - i + 1)})
		i = j + 1
	}
	a.inUse -= len(positions)
}

func (a *refAllocator) insert(s span) {
	i := sort.Search(len(a.free), func(k int) bool { return a.free[k].start > s.start })
	a.free = slices.Insert(a.free, i, s)
	if i > 0 && a.free[i-1].end() == a.free[i].start {
		a.free[i-1].length += a.free[i].length
		a.free = slices.Delete(a.free, i, i+1)
		i--
	}
	if i+1 < len(a.free) && a.free[i].end() == a.free[i+1].start {
		a.free[i].length += a.free[i+1].length
		a.free = slices.Delete(a.free, i+1, i+2)
	}
}

// TestAllocatorInvariantsProperty drives random allocate/release sequences
// through the span allocator and the reference allocator side by side
// and checks throughout: every placement yields the reference's nodes in
// the reference's order, its spans are non-empty and disjoint, no slot is
// handed out twice, free counts balance, and a full release restores one
// free span over the whole order.
func TestAllocatorInvariantsProperty(t *testing.T) {
	scattered := 0 // placements of more than one span
	f := func(seed int64, policyBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := []PlacementPolicy{TorusFit, LinearFit, CoolFirstFit}[policyBits%3]
		a, ref := NewAllocator(policy), newRefAllocator(policy)
		held := map[topology.NodeID]bool{}
		var allocations []Placement
		var refAllocations [][]topology.NodeID

		for op := 0; op < 200; op++ {
			if rng.Intn(3) != 0 || len(allocations) == 0 {
				n := 1 + rng.Intn(2000)
				p, ok := a.Alloc(n)
				want := ref.alloc(n)
				if ok != (want != nil) {
					t.Logf("Alloc(%d) ok=%v, reference %v", n, ok, want != nil)
					return false
				}
				if !ok {
					if n <= a.FreeCount() {
						return false // refused a request that fits
					}
					continue
				}
				if got := p.AppendTo(nil); !slices.Equal(got, want) || p.Len() != n {
					t.Logf("Alloc(%d) yields %d nodes (Len %d), not the reference's %d in order", n, len(got), p.Len(), len(want))
					return false
				}
				if !spansDisjoint(p.spans) {
					t.Logf("Alloc(%d) spans %v overlap or are empty", n, p.spans)
					return false
				}
				for _, n := range p.AppendTo(nil) {
					if held[n] {
						return false // double allocation
					}
					if int(n) >= topology.TotalComputeGPUs {
						return false // service slot leaked
					}
					held[n] = true
				}
				if len(p.spans) > 1 {
					scattered++
				}
				allocations = append(allocations, p)
				refAllocations = append(refAllocations, want)
			} else {
				idx := rng.Intn(len(allocations))
				p := allocations[idx]
				allocations = slices.Delete(allocations, idx, idx+1)
				ref.release(refAllocations[idx])
				refAllocations = slices.Delete(refAllocations, idx, idx+1)
				for _, n := range p.AppendTo(nil) {
					if !held[n] {
						return false
					}
					delete(held, n)
				}
				a.Release(p)
			}
			if a.FreeCount() != a.Capacity()-len(held) || !slices.Equal(a.free, ref.free) {
				return false // accounting drift, or a free list the reference does not have
			}
		}
		for _, p := range allocations {
			a.Release(p)
		}
		return a.FreeCount() == a.Capacity() &&
			slices.Equal(a.free, []span{{0, int32(a.Capacity())}})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if scattered == 0 {
		t.Error("no allocation took the scattered path; the comparison is vacuous there")
	}
	t.Logf("%d scattered placements", scattered)
}

// spansDisjoint reports whether every span is non-empty and no two
// share a position.
func spansDisjoint(spans []span) bool {
	sorted := slices.Clone(spans)
	slices.SortFunc(sorted, func(x, y span) int { return int(x.start - y.start) })
	for i, s := range sorted {
		if s.length <= 0 || i > 0 && sorted[i-1].end() > s.start {
			return false
		}
	}
	return true
}
