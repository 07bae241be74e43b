package store

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"titanre/internal/console"
	"titanre/internal/durable"
	"titanre/internal/topology"
)

// TestNodeIndexMatchesColumns: every node's run in a segment's node
// index is exactly the positions whose node column names it, ascending —
// for heap-built and mapped segments of the simulated stream, an empty
// segment, a one-node segment and one holding the highest node id — and
// eight readers asking for a fresh segment's index at once share the one
// build.
func TestNodeIndexMatchesColumns(t *testing.T) {
	events := simEvents(t)
	heap := sealChunks(t, events, (len(events)+2)/3)
	dir := t.TempDir()
	sealInto(t, dir, events)
	var mapped []*Segment
	for i := range 3 {
		seg, err := MapSegmentFile(durable.OS, filepath.Join(dir, fmt.Sprintf("seg-%06d.seg", i)))
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		mapped = append(mapped, seg)
	}
	one := sealChunks(t, []console.Event{sealEvent(0, 4711, 1, 13), sealEvent(1, 4711, 2, 48), sealEvent(2, 4711, 1, 13)}, 3)[0]
	top := topology.TotalNodes - 1
	edge := sealChunks(t, []console.Event{sealEvent(0, top, 9, 13), sealEvent(1, 0, 8, 13), sealEvent(2, top, 9, 31), sealEvent(3, 1, 7, 13)}, 4)[0]

	cases := map[string]*Segment{"empty": {}, "one node": one, "highest node": edge}
	for i := range heap {
		cases[fmt.Sprintf("heap %d", i)] = heap[i]
		cases[fmt.Sprintf("mapped %d", i)] = mapped[i]
	}
	for name, seg := range cases {
		if seg.NodeIndexBytes() != 0 {
			t.Fatalf("%s: index built before any read asked for it", name)
		}
		idx := seg.index()
		want := make([][]uint32, topology.TotalNodes)
		for i, node := range seg.nodes {
			want[node] = append(want[node], uint32(i))
		}
		for node := range want {
			if got := idx.nodeRows(uint32(node)); !slices.Equal(got, want[node]) {
				t.Fatalf("%s: node %d's rows are %v, the column has %v", name, node, got, want[node])
			}
		}
		if got, bytes := seg.NodeIndexBytes(), int64(4*(topology.TotalNodes+1+seg.Len())); got != bytes {
			t.Fatalf("%s: NodeIndexBytes %d, want %d", name, got, bytes)
		}
	}

	fresh := sealChunks(t, events[:5000], 5000)[0]
	got := make([]*nodeIndex, 8)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[r] = fresh.index()
		}()
	}
	wg.Wait()
	for r, idx := range got {
		if idx != got[0] || len(idx.rows) != fresh.Len() {
			t.Fatalf("reader %d got index %p with %d rows; reader 0 got %p, the segment has %d", r, idx, len(idx.rows), got[0], fresh.Len())
		}
	}
}
