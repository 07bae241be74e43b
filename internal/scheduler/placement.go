package scheduler

import "titanre/internal/topology"

// Placement is the set of nodes one job runs on, kept the way the
// allocator hands them out: runs of consecutive positions over a shared
// allocation order, however many nodes each run holds. (Over the default
// 21-month study, four jobs in five are one run of the folded-torus
// order, and 42.9 M placed nodes are 2.09 M runs.) Placements read from
// a job log run over the identity order (dense node IDs), one run per
// "12-19" range.
//
// A placement is a value: copying it shares the order and the spans,
// and nothing writes either after the placement is made.
type Placement struct {
	order []topology.NodeID
	spans []span
}

// span is a run of consecutive positions: in a placement, over its
// order; in the allocator's free list, over the allocator's order.
type span struct {
	start, length int32
}

func (s span) end() int32 { return s.start + s.length }

// identityOrder is dense node-ID order, the order job-log placements
// run over.
var identityOrder = func() []topology.NodeID {
	out := make([]topology.NodeID, topology.TotalNodes)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}()

// NumRuns returns how many runs Run walks.
func (p Placement) NumRuns() int { return len(p.spans) }

// Run returns the placement's i-th run of nodes, a window on the shared
// order that the caller must not write. Runs 0 to NumRuns()-1, each in
// order, are the placement's nodes in allocation order:
//
//	for ri := range p.NumRuns() {
//		for _, n := range p.Run(ri) {
//
// For an allocated placement that is the allocator's hand-out order;
// for one read from a job log, the log's order (ascending IDs). Callers
// that draw from a placement or hash it depend on that order.
func (p Placement) Run(i int) []topology.NodeID {
	s := p.spans[i]
	return p.order[s.start:s.end():s.end()]
}

// AppendTo appends the placement's nodes to dst in allocation order.
func (p Placement) AppendTo(dst []topology.NodeID) []topology.NodeID {
	for _, s := range p.spans {
		dst = append(dst, p.order[s.start:s.end()]...)
	}
	return dst
}

// Len returns the number of nodes in the placement.
func (p Placement) Len() int {
	n := 0
	for _, s := range p.spans {
		n += int(s.length)
	}
	return n
}
