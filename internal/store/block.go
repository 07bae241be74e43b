package store

import (
	"math/bits"
	"sync"

	"titanre/internal/console"
)

// Blocks — how selected rows travel from a row source (a sealed segment,
// a slice of materialized events) to a query accumulator: as column
// slices, a block per dynamic call, never a call per row.

// block is a run of selected rows as parallel column slices — the unit a
// rowSink folds per call. serials is nil for a sink that does not
// needSerial (inside a segment a serial is two more loads a row). sorted
// says the times never decrease: the rows come from a time-sorted
// segment, in position order.
type block struct {
	times   []int64
	codes   []uint16 // int16 two's complement, as the segments store them
	nodes   []uint32
	serials []uint32
	sorted  bool
}

// blockRows bounds a gathered block.
const blockRows = 1024

// rowSink folds the rows a query selects, a block at a time.
type rowSink interface {
	addRows(b block)
	needSerial() bool
}

// segmentSink is a rowSink that can take some segments through their
// node index (nodeindex.go) instead of a walk over the selection:
// foldSegment reports whether it did. A sink that reads rows off the
// index hands them on through g.
type segmentSink interface {
	foldSegment(g *gather, s *Segment, sel bitmap, kind segMatch) bool
}

// gather is one fold worker's row source: it hands a sink the rows a
// matcher selects, straight off the columns where a whole run matches and
// copied into its one reusable block where rows must be picked out. The
// block (a serial column included, wanted or not) is pooled with it.
type gather struct {
	sink    rowSink
	whole   segmentSink // the sink, when it is one
	serials bool        // the sink reads the serial column
	n       int         // rows buffered in buf
	buf     block       // blockRows long
	sorted  bool        // the rows being handed on come from a time-sorted segment
	visited int64       // rows handed to the sink
}

var gatherPool = sync.Pool{New: func() any {
	return &gather{buf: block{
		times:   make([]int64, blockRows),
		codes:   make([]uint16, blockRows),
		nodes:   make([]uint32, blockRows),
		serials: make([]uint32, blockRows),
	}}
}}

// newGather borrows a gather for sink; release returns it.
func newGather(sink rowSink) *gather {
	g := gatherPool.Get().(*gather)
	g.sink, g.serials, g.n, g.sorted, g.visited = sink, sink.needSerial(), 0, false, 0
	g.whole, _ = sink.(segmentSink)
	return g
}

func (g *gather) release() {
	g.sink, g.whole = nil, nil
	gatherPool.Put(g)
}

// add buffers one row; callers flush before the block can overflow.
func (g *gather) add(sec int64, code uint16, node, serial uint32) {
	g.buf.times[g.n], g.buf.codes[g.n], g.buf.nodes[g.n], g.buf.serials[g.n] = sec, code, node, serial
	g.n++
}

// flush folds the buffered rows, if any.
func (g *gather) flush() {
	if g.n > 0 {
		g.emit(g.buf.times[:g.n], g.buf.codes[:g.n], g.buf.nodes[:g.n])
		g.n = 0
	}
}

// emit hands one block to the sink; the serial column, when the sink
// wants one, is the front of the gather buffer.
func (g *gather) emit(times []int64, codes []uint16, nodes []uint32) {
	b := block{times: times, codes: codes, nodes: nodes, sorted: g.sorted}
	if g.serials {
		b.serials = g.buf.serials[:len(times)]
	}
	g.visited += int64(len(times))
	g.sink.addRows(b)
}

// segment is the one way a sealed segment's rows reach an accumulator:
// every row of the selection (scan.sel evaluates the matcher), in
// position order, as column values — never as a materialized event, whose
// arena decode would cost several times the kernels themselves. A segment
// the matcher rules out is skipped without touching its columns; one it
// fully covers hands its (possibly mmap-aliased) columns over in place,
// whole — blockRows at a time for a sink that reads serials, which are
// looked up into the gather's buffer — so a rollup's bucket runs are not
// cut at block edges; otherwise the positions sel marks are gathered —
// unless the sink takes the segment through its node index. The
// retained tail's counterpart is events.
func (g *gather) segment(s *Segment, sel bitmap, kind segMatch) {
	if kind == matchNone || g.whole != nil && g.whole.foldSegment(g, s, sel, kind) {
		return
	}
	g.sorted = s.timeSorted()
	switch kind {
	case matchAll:
		if !g.serials {
			g.emit(s.times, s.codes, s.nodes)
			break
		}
		for lo := 0; lo < len(s.times); lo += blockRows {
			hi := min(lo+blockRows, len(s.times))
			for i := lo; i < hi; i++ {
				g.buf.serials[i-lo] = s.serialAt(i)
			}
			g.emit(s.times[lo:hi], s.codes[lo:hi], s.nodes[lo:hi])
		}
	case matchSome:
		for wi, w := range sel.words {
			if g.n > blockRows-64 {
				g.flush()
			}
			for ; w != 0; w &= w - 1 {
				i := wi<<6 + bits.TrailingZeros64(w)
				var serial uint32
				if g.serials {
					serial = s.serialAt(i)
				}
				g.add(s.times[i], s.codes[i], s.nodes[i], serial)
			}
		}
		g.flush()
	}
	g.sorted = false
}

// events is the row source for materialized events — the retained tail,
// and the whole stream in the RollupEvents/TopEvents references: every
// event matching m (nil = all) reaches the sink as the same column
// values segment reads off a segment.
func (g *gather) events(events []console.Event, m *Matcher) {
	for i := range events {
		e := &events[i]
		if m != nil && !m.MatchEvent(*e) {
			continue
		}
		if g.n == blockRows {
			g.flush()
		}
		g.add(e.Time.Unix(), uint16(int16(e.Code)), uint32(e.Node), uint32(e.Serial))
	}
	g.flush()
}
