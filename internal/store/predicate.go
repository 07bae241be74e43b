package store

import (
	"fmt"
	"math"
	"path"
	"strings"
	"time"

	"titanre/internal/console"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Composable predicates over the event stream — the filter half of a
// titanql plan. A Predicate is compiled once into a Matcher; against a
// sealed segment the matcher evaluates to a position bitmap built by
// intersecting the stored per-code bitmaps with computed node/cabinet/
// cage and time-range bitmaps, so a multi-predicate scan touches only
// matching rows and its popcount sizes every allocation exactly.
// Against materialized events (the retained tail, and the naive batch
// reference) the same matcher tests one event at a time — the two paths
// must agree on every event, which the titanql equivalence gate proves
// byte-for-byte.

// Predicate is a conjunction of event filters; zero values mean
// unconstrained. Code membership, cname/cabinet globs and the cage index
// restrict where; Since/Until restrict when (inclusive, zero = open).
type Predicate struct {
	// Codes keeps only events carrying one of these codes (empty = any).
	Codes []xid.Code
	// NotCodes drops events carrying any of these codes.
	NotCodes []xid.Code
	// Node is a path.Match glob over the full cname ("c3-2c1s4n2",
	// "c3-*", "c?-0c2*"); empty = any node.
	Node string
	// Cabinet is a path.Match glob over the cabinet name ("c3-2",
	// "c3-*"); empty = any cabinet.
	Cabinet string
	// Cage keeps only events in this cage (0 = bottom); -1 or any
	// negative value = all cages.
	Cage int
	// Since and Until bound event times inclusively; zero = unbounded.
	Since, Until time.Time
}

// Empty reports whether the predicate constrains nothing.
func (p Predicate) Empty() bool {
	return len(p.Codes) == 0 && len(p.NotCodes) == 0 &&
		p.Node == "" && p.Cabinet == "" && p.Cage < 0 &&
		p.Since.IsZero() && p.Until.IsZero()
}

// Compile validates the predicate and builds its Matcher. Globs are
// checked up front (a malformed pattern fails here, never mid-scan), and
// the node-level predicates are folded into the sorted node-id ranges
// they keep, so a segment reads those nodes' rows off its node index and
// an event is one binary search. An empty predicate compiles to the nil
// Matcher, which every consumer reads as "all rows" without evaluating
// anything.
func (p Predicate) Compile() (*Matcher, error) {
	if p.Empty() {
		return nil, nil
	}
	if p.Cage >= topology.CagesPerCabinet {
		return nil, fmt.Errorf("store: cage %d out of range (machine has %d)", p.Cage, topology.CagesPerCabinet)
	}
	for _, glob := range []string{p.Node, p.Cabinet} {
		if glob == "" {
			continue
		}
		if _, err := path.Match(glob, "probe"); err != nil {
			return nil, fmt.Errorf("store: bad glob %q", glob)
		}
	}
	m := &Matcher{p: p, lo: math.MinInt64, hi: math.MaxInt64}
	if !p.Since.IsZero() {
		m.lo = p.Since.Unix()
	}
	if !p.Until.IsZero() {
		m.hi = p.Until.Unix()
	}
	if p.Node != "" || p.Cabinet != "" || p.Cage >= 0 {
		// A cabinet glob is matched once per cabinet (200) — its name is
		// the front of its first node's interned cname, so spelling it
		// allocates nothing — and a cabinet that matches is a range of node
		// ids, its cage a sub-range: without a node glob the ranges are
		// the answer, no node looked at. The cname glob is matched once per
		// candidate node inside them: every interned name for a real glob,
		// but a pattern with no metacharacters can only ever match the one
		// node it spells, so it is parsed instead — the answer path.Match
		// would reach, ~300 µs sooner.
		first, end := 0, topology.TotalNodes
		if p.Node != "" && !strings.ContainsAny(p.Node, `*?[\`) {
			id, err := topology.ParseNodeID(p.Node)
			if err != nil || topology.CNameOf(id) != p.Node {
				end = 0 // spells no node (or a non-canonical form no cname equals)
			} else {
				first, end = int(id), int(id)+1
			}
		}
		m.ranges = make([]nodeRange, 0, topology.Cabinets) // non-nil: no range at all keeps no node
		addRange := func(lo, hi int) {
			if k := len(m.ranges) - 1; k >= 0 && m.ranges[k].hi == uint32(lo) {
				m.ranges[k].hi = uint32(hi)
			} else {
				m.ranges = append(m.ranges, nodeRange{uint32(lo), uint32(hi)})
			}
		}
		for cab := 0; cab < topology.Cabinets; cab++ {
			lo := cab * topology.NodesPerCabinet
			if p.Cabinet != "" {
				name := topology.CNameOf(topology.NodeID(lo))
				if ok, _ := path.Match(p.Cabinet, name[:1+strings.IndexByte(name[1:], 'c')]); !ok {
					continue
				}
			}
			hi := lo + topology.NodesPerCabinet
			if p.Cage >= 0 {
				lo += p.Cage * topology.NodesPerCage
				hi = lo + topology.NodesPerCage
			}
			lo, hi = max(lo, first), min(hi, end)
			if p.Node == "" {
				if lo < hi {
					addRange(lo, hi)
				}
				continue
			}
			for n := lo; n < hi; n++ {
				if ok, _ := path.Match(p.Node, topology.CNameOf(topology.NodeID(n))); ok {
					addRange(n, n+1)
				}
			}
		}
	}
	return m, nil
}

// nodeRange is the node ids [lo, hi).
type nodeRange struct{ lo, hi uint32 }

// Matcher is a compiled Predicate, shareable read-only across the
// segment-parallel workers.
type Matcher struct {
	p      Predicate
	ranges []nodeRange // the nodes kept, ascending and disjoint; nil = every node
	lo, hi int64       // inclusive epoch-second bounds
}

// hasNode reports whether node lies in one of the kept ranges.
func (m *Matcher) hasNode(node uint32) bool {
	r := m.ranges
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid].hi <= node {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(r) && r[lo].lo <= node
}

// MatchEvent tests one materialized event — the kernel the retained
// tail and the naive batch reference share. The nil matcher matches all.
func (m *Matcher) MatchEvent(e console.Event) bool {
	if m == nil {
		return true
	}
	if sec := e.Time.Unix(); sec < m.lo || sec > m.hi {
		return false
	}
	if !m.matchCode(e.Code) {
		return false
	}
	if m.ranges != nil {
		if !e.Node.Valid() || !m.hasNode(uint32(e.Node)) {
			return false
		}
	}
	return true
}

// matchCode tests the code conjuncts alone.
func (m *Matcher) matchCode(c xid.Code) bool {
	return (len(m.p.Codes) == 0 || codeIn(c, m.p.Codes)) && !codeIn(c, m.p.NotCodes)
}

// codeIn reports membership in a (short) code list.
func codeIn(c xid.Code, codes []xid.Code) bool {
	for _, want := range codes {
		if c == want {
			return true
		}
	}
	return false
}

// segMatch classifies how a matcher relates to one segment.
type segMatch int

const (
	matchNone segMatch = iota // no row matches; skip the segment
	matchAll                  // every row matches; scan without a bitmap
	matchSome                 // bits marks the matching rows
)

// segmentBits evaluates the matcher against one sealed segment. A
// location filter goes first: it reads how many rows its nodes hold off
// the segment's node index — none rules the segment out, all of them
// leaves the filter nothing to do — and otherwise marks their rows
// straight from the index. Code predicates then take the stored per-code
// bitmaps, word-wise and with no column read: their union, intersected
// with the location's rows when there are some, and an andNot for code
// exclusion. A partial time overlap either builds the bitmap from
// the time column or clears the marked positions that fail. Each step
// after the first visits only the survivors, not the segment. matchAll
// means the caller can stream the columns directly; matchNone means the
// segment contributes nothing (detected without touching rows when only
// code and location predicates apply). The one bitmap is built in buf
// when it is large enough (a fold lends pooled words and keeps the
// answer for its second pass).
func (m *Matcher) segmentBits(s *Segment, buf []uint64) (bitmap, segMatch) {
	if m.lo > s.maxT || m.hi < s.minT {
		return bitmap{}, matchNone
	}
	n := s.Len()
	var sel bitmap
	have := false
	var stored [8]bitmap // the code union's stored bitmaps, spilling past eight codes
	codes := stored[:0]
	for _, code := range m.p.Codes {
		if cb := s.findCode(code); cb != nil {
			codes = append(codes, cb.bits)
		}
	}
	if len(m.p.Codes) > 0 && len(codes) == 0 {
		return bitmap{}, matchNone
	}
	if m.ranges != nil {
		idx := s.index()
		in := 0
		for _, r := range m.ranges {
			in += int(idx.rowBase[r.hi] - idx.rowBase[r.lo])
		}
		if in == 0 {
			return bitmap{}, matchNone
		}
		if in < n { // else every row's node is kept
			sel, have = bitmapIn(buf, n, false), true
			for _, r := range m.ranges {
				for _, i := range idx.rows[idx.rowBase[r.lo]:idx.rowBase[r.hi]] {
					sel.set(int(i))
				}
			}
		}
	}
	if len(codes) > 0 {
		if have {
			sel.andAny(codes)
		} else {
			sel, have = bitmapIn(buf, n, false), true
			for _, bits := range codes {
				sel.or(bits)
			}
		}
	}
	if len(m.p.NotCodes) > 0 {
		if !have {
			sel, have = bitmapIn(buf, n, true), true
		}
		for _, code := range m.p.NotCodes {
			if cb := s.findCode(code); cb != nil {
				sel.andNot(cb.bits)
			}
		}
	}
	if m.lo > s.minT || m.hi < s.maxT {
		if have {
			sel.keep(func(i int) bool { return s.times[i] >= m.lo && s.times[i] <= m.hi })
		} else {
			sel, have = bitmapIn(buf, n, false), true
			for i, t := range s.times {
				if t >= m.lo && t <= m.hi {
					sel.set(i)
				}
			}
		}
	}
	if !have {
		return bitmap{}, matchAll
	}
	if !sel.any() {
		return bitmap{}, matchNone
	}
	return sel, matchSome
}

// CountWhere reports how many of the segment's rows match — the
// popcount that pre-sizes result allocations.
func (s *Segment) CountWhere(m *Matcher) int {
	if m == nil {
		return s.Len()
	}
	bits, kind := m.segmentBits(s, nil)
	switch kind {
	case matchNone:
		return 0
	case matchAll:
		return s.Len()
	}
	return bits.count()
}

// ScanWhere appends every matching event to dst, walking only
// bitmap-marked positions and growing dst at most once (grow).
func (s *Segment) ScanWhere(m *Matcher, dst []console.Event) []console.Event {
	dst, _ = s.ScanLimit(m, dst, -1)
	return dst
}

// ScanLimit is ScanWhere that stops materializing once dst holds limit
// events (limit < 0: never), and reports how many rows matched whether
// or not they were materialized — past the limit a popcount, no row
// touched. Under a matcher that keeps one node (a node's history) the
// segment's bitmap is never built: that node's rows, read off the node
// index, are the only ones tested.
func (s *Segment) ScanLimit(m *Matcher, dst []console.Event, limit int) (out []console.Event, matched int) {
	if m != nil && len(m.ranges) == 1 && m.ranges[0].hi == m.ranges[0].lo+1 {
		return s.scanNode(m, m.ranges[0].lo, dst, limit)
	}
	bits, kind := bitmap{}, matchAll
	if m != nil {
		bits, kind = m.segmentBits(s, nil)
	}
	switch kind {
	case matchNone:
		return dst, 0
	case matchAll:
		matched = s.Len()
	default:
		matched = bits.count()
	}
	dst, end := grow(dst, matched, limit)
	if kind == matchAll {
		for i := 0; len(dst) < end; i++ {
			dst = append(dst, s.EventAt(i))
		}
	} else if len(dst) < end {
		bits.forEach(func(i int) bool {
			dst = append(dst, s.EventAt(i))
			return len(dst) < end
		})
	}
	return dst, matched
}

// scanNode is ScanLimit for a matcher that keeps the one node: a pass
// over the node's rows counts the matches, a second materializes them up
// to the limit.
func (s *Segment) scanNode(m *Matcher, node uint32, dst []console.Event, limit int) ([]console.Event, int) {
	if m.lo > s.maxT || m.hi < s.minT {
		return dst, 0
	}
	rows := s.index().nodeRows(node)
	match := func(i uint32) bool {
		t := s.times[i]
		return t >= m.lo && t <= m.hi && m.matchCode(xid.Code(int16(s.codes[i])))
	}
	matched := 0
	for _, i := range rows {
		if match(i) {
			matched++
		}
	}
	dst, end := grow(dst, matched, limit)
	for _, i := range rows {
		if len(dst) == end {
			break
		}
		if match(i) {
			dst = append(dst, s.EventAt(int(i)))
		}
	}
	return dst, matched
}

// grow makes room in dst for the matched events a limit lets through
// and returns the length dst will reach: to exactly that for a fresh
// result, by doubling when a caller extends one result segment after
// segment (exact regrowth there would copy — and leave as garbage — the
// whole prefix once per segment).
func grow(dst []console.Event, matched, limit int) ([]console.Event, int) {
	take := matched
	if limit >= 0 {
		take = min(take, max(limit-len(dst), 0))
	}
	if cap(dst)-len(dst) < take {
		grown := make([]console.Event, len(dst), max(len(dst)+take, 2*len(dst)))
		copy(grown, dst)
		dst = grown
	}
	return dst, len(dst) + take
}
