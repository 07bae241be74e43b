package store

import "titanre/internal/topology"

// The node index: a sealed segment's row positions grouped by node, the
// way the card table groups its serials — node n's rows are
// rows[rowBase[n]:rowBase[n+1]], ascending. It is derived from the node
// column, never written: built under a sync.Once by the first read that
// asks a per-node question (a count-first ranking by node, a node,
// cabinet or cage filter, a node's history), held on the heap beside the
// columns and freed with the segment. Open, restart and the file format
// know nothing of it. Four reads use it: the count pass of a ranking by
// node reads a whole-segment count straight off rowBase, its detail pass
// visits only the winners' rows, ScanLimit under an exact-node matcher
// reads that node's rows, and segmentBits marks a location filter's rows
// without testing the others.
type nodeIndex struct {
	rowBase []uint32 // topology.TotalNodes+1 prefix sums
	rows    []uint32 // positions, grouped by node
}

// index returns the segment's node index, building it on first use;
// concurrent first readers wait for the one build.
func (s *Segment) index() *nodeIndex {
	s.idxOnce.Do(func() {
		// A counting sort: rowBase[n] is first node n's row count, then
		// the end of its run; a backward pass over the column steps each
		// end down to the run's start, leaving each run ascending.
		base := make([]uint32, topology.TotalNodes+1)
		for _, node := range s.nodes {
			base[node]++
		}
		var sum uint32
		for n, c := range base[:topology.TotalNodes] {
			sum += c
			base[n] = sum
		}
		base[topology.TotalNodes] = sum
		rows := make([]uint32, len(s.nodes))
		for i := len(s.nodes) - 1; i >= 0; i-- {
			node := s.nodes[i]
			base[node]--
			rows[base[node]] = uint32(i)
		}
		s.idx = nodeIndex{rowBase: base, rows: rows}
		s.idxBytes.Store(int64(len(base)+len(rows)) * 4)
	})
	return &s.idx
}

// nodeRows is node's rows, ascending.
func (x *nodeIndex) nodeRows(node uint32) []uint32 {
	return x.rows[x.rowBase[node]:x.rowBase[node+1]]
}

// NodeIndexBytes reports the heap bytes of the segment's node index: 0
// until a read has built it.
func (s *Segment) NodeIndexBytes() int64 { return s.idxBytes.Load() }
