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
// the node-level predicates are folded into one boolean mask over the
// machine's node space so a segment scan tests one slice index per row.
// An empty predicate compiles to the nil Matcher, which every consumer
// reads as "all rows" without evaluating anything.
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
		// ids, its cage a sub-range: without a node glob the mask is filled
		// by ranges, no node looked at. The cname glob is matched once per
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
		mask := make([]bool, topology.TotalNodes)
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
			for n := max(lo, first); n < min(hi, end); n++ {
				if p.Node == "" {
					mask[n] = true
				} else {
					mask[n], _ = path.Match(p.Node, topology.CNameOf(topology.NodeID(n)))
				}
			}
		}
		m.nodeMask = mask
	}
	return m, nil
}

// Matcher is a compiled Predicate, shareable read-only across the
// segment-parallel workers.
type Matcher struct {
	p        Predicate
	nodeMask []bool // nil = every node matches
	lo, hi   int64  // inclusive epoch-second bounds
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
	if len(m.p.Codes) > 0 && !codeIn(e.Code, m.p.Codes) {
		return false
	}
	if codeIn(e.Code, m.p.NotCodes) {
		return false
	}
	if m.nodeMask != nil {
		if !e.Node.Valid() || !m.nodeMask[e.Node] {
			return false
		}
	}
	return true
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

// segmentBits evaluates the matcher against one sealed segment. Code
// predicates start from the stored per-code bitmaps (a word-wise union,
// no column read, and an andNot for code exclusion); the node mask and a
// partial time overlap then either build the bitmap from their column or,
// when there is one already, clear the marked positions that fail — a
// pass over the survivors, not the segment. matchAll means the caller can
// stream the columns directly; matchNone means the segment contributes
// nothing (detected without touching rows when only code predicates
// apply). The one bitmap is built in buf when it is large enough (a fold
// lends pooled words and keeps the answer for its second pass).
func (m *Matcher) segmentBits(s *Segment, buf []uint64) (bitmap, segMatch) {
	if m.lo > s.maxT || m.hi < s.minT {
		return bitmap{}, matchNone
	}
	n := s.Len()
	var sel bitmap
	have := false
	if len(m.p.Codes) > 0 {
		sel = bitmapIn(buf, n, false)
		found := false
		for _, code := range m.p.Codes {
			if cb := s.findCode(code); cb != nil {
				sel.or(cb.bits)
				found = true
			}
		}
		if !found {
			return bitmap{}, matchNone
		}
		have = true
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
	if m.nodeMask != nil {
		if have {
			sel.keep(func(i int) bool { return m.nodeMask[s.nodes[i]] })
		} else {
			sel, have = bitmapIn(buf, n, false), true
			for i, node := range s.nodes {
				if m.nodeMask[node] {
					sel.set(i)
				}
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
// bitmap-marked positions and growing dst at most once: to exactly the
// popcount for a fresh result, by doubling when a caller extends one
// result segment after segment (exact regrowth there would copy — and
// leave as garbage — the whole prefix once per segment).
func (s *Segment) ScanWhere(m *Matcher, dst []console.Event) []console.Event {
	dst, _ = s.ScanLimit(m, dst, -1)
	return dst
}

// ScanLimit is ScanWhere that stops materializing once dst holds limit
// events (limit < 0: never), and reports how many rows matched whether
// or not they were materialized — past the limit a popcount, no row
// touched.
func (s *Segment) ScanLimit(m *Matcher, dst []console.Event, limit int) (out []console.Event, matched int) {
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
	take := matched
	if limit >= 0 {
		take = min(take, max(limit-len(dst), 0))
	}
	if cap(dst)-len(dst) < take {
		grown := make([]console.Event, len(dst), max(len(dst)+take, 2*len(dst)))
		copy(grown, dst)
		dst = grown
	}
	end := len(dst) + take
	if kind == matchAll {
		for i := 0; i < take; i++ {
			dst = append(dst, s.EventAt(i))
		}
	} else if take > 0 {
		bits.forEach(func(i int) bool {
			dst = append(dst, s.EventAt(i))
			return len(dst) < end
		})
	}
	return dst, matched
}
