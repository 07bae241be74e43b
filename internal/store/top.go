package store

import (
	"fmt"
	"sync"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/jsonw"
	"titanre/internal/stats"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Top-K offender cards — the paper's "a handful of cards produce almost
// all the SBEs" lists. A Top is a rowSink like Rollup: fold feeds its
// one addRows kernel from segment columns and tail events; Doc ranks in
// stats.TopOffenders' order (count descending, key ascending). A ranking
// that renders K cards is folded count-first (ParallelTopAcc): topCounts
// is the first pass, and Top then sees the winners' rows alone.

// TopBy selects the offender dimension.
type TopBy string

const (
	TopByNode   TopBy = "node"
	TopBySerial TopBy = "serial"
	TopByCode   TopBy = "code"
)

// TopSpec is the shape of one offender ranking: the dimension and how
// many cards to keep (K ≤ 0 means every key). Like RollupSpec it says
// nothing about which rows are counted.
type TopSpec struct {
	By TopBy
	K  int
}

// Validate reports whether the spec names a dimension offenders rank by.
func (spec TopSpec) Validate() error {
	switch spec.By {
	case TopByNode, TopBySerial, TopByCode:
		return nil
	}
	return fmt.Errorf("store: top-k dimension %q (want node, serial or code)", spec.By)
}

// Every offender is one flat row of int64s: count, first and last second
// seen, then — unless the ranking is by code itself — a count per code,
// a column for each code in the codes dictionary's first-seen order. Rows
// live in fixed-size pages, so a new key never moves an old row.
const (
	topCount, topFirst, topLast = 0, 1, 2
	topHead                     = 3   // the columns ahead of the per-code counts
	topPage                     = 512 // rows per page
)

// Top accumulates offender counts as flat rows behind a slotTable over
// the offender keys: no per-key pointer, no per-key map. When more codes
// turn up than a row has columns, every page is rewritten at double the
// row width. ParallelTopAcc (or MergeTopPartials) populates it; Doc
// renders it; Release returns it, pages and tables, to the pool the next
// fold draws from.
type Top struct {
	spec    TopSpec
	only    *topCounts // set during a count-first detail pass: rows of other keys are skipped
	winners bool       // the count-first result: holds the K winners, not every key
	keys    slotTable
	codes   slotTable // uint16 code -> column after topHead; unused for by=code
	width   int       // int64s per row; only ever grows while pooled
	pages   [][]int64 // page p holds rows of slots [p*topPage, (p+1)*topPage)
	total   int64
	visited int64 // rows the fold handed its kernels, both passes (ParallelTopAcc)
}

var topPool = sync.Pool{New: func() any { return &Top{width: 8} }}

// NewTop validates spec and returns an empty accumulator.
func NewTop(spec TopSpec) (*Top, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newTop(spec, nil), nil
}

// newTop borrows an empty accumulator for an already validated spec.
func newTop(spec TopSpec, only *topCounts) *Top {
	t := topPool.Get().(*Top)
	t.spec, t.only, t.winners, t.total, t.visited = spec, only, only != nil, 0, 0
	return t
}

// Release returns the accumulator to the pool; the caller is done with
// it (a Doc or Partial already taken stays valid — both are copies). One
// that grew past maxPooledBytes is left to the collector instead.
func (t *Top) Release() {
	if 8*(len(t.pages)*topPage*t.width+3*cap(t.keys.keys)) > maxPooledBytes {
		return
	}
	t.keys.reset()
	t.codes.reset()
	topPool.Put(t)
}

// Total reports how many rows the accumulator has counted.
func (t *Top) Total() int64 { return t.total }

// Visited reports how many rows the fold that built the accumulator
// handed its kernels, over both passes of a count-first ranking: what
// was read to count Total rows.
func (t *Top) Visited() int64 { return t.visited }

// needSerial: only a by=serial ranking reads the serial column.
func (t *Top) needSerial() bool { return t.spec.By == TopBySerial }

// row returns slot's state.
func (t *Top) row(slot int) []int64 {
	page, off := uint(slot)/topPage, int(uint(slot)%topPage)*t.width
	return t.pages[page][off : off+t.width]
}

// slot interns an offender key; a new one starts with no events and its
// first/last at the given second.
func (t *Top) slot(key uint64, sec int64) int {
	slot, fresh := t.keys.slot(key)
	if fresh {
		if slot/topPage == len(t.pages) {
			t.pages = append(t.pages, make([]int64, topPage*t.width))
		}
		row := t.row(slot)
		clear(row) // a pooled page holds the last fold's rows
		row[topFirst], row[topLast] = sec, sec
	}
	return slot
}

// column interns a code (in its uint16 column form) and returns its
// column, widening every row first when the dictionary has outgrown
// them — which invalidates rows the caller holds.
func (t *Top) column(code uint16) int {
	col, _ := t.codes.slot(uint64(code))
	if topHead+col >= t.width {
		for p, page := range t.pages {
			wide := make([]int64, 2*len(page))
			for r := 0; r < topPage; r++ {
				copy(wide[2*r*t.width:], page[r*t.width:(r+1)*t.width])
			}
			t.pages[p] = wide
		}
		t.width *= 2
	}
	return topHead + col
}

// addRows is the kernel: count a block of rows the fold's matcher chose
// (a count-first detail pass also skips every key but the winners).
// Consecutive rows of one code share a dictionary lookup.
func (t *Top) addRows(b block) {
	codes, keys := b.codes[:len(b.times)], b.nodes[:len(b.times)]
	if t.spec.By == TopBySerial {
		keys = b.serials[:len(b.times)]
	}
	byCode, only := t.spec.By == TopByCode, t.only
	var won []uint64
	var dense uint64
	if only != nil {
		won, dense = only.won.words, uint64(only.dense)
	}
	lastCode, col := uint16(0), -1
	for i := range codes {
		key := uint64(keys[i])
		if byCode {
			key = uint64(codes[i])
		}
		if only != nil {
			if key >= dense {
				if !only.keptSparse(key) {
					continue
				}
			} else if won[key>>6]>>(key&63)&1 == 0 {
				continue
			}
		}
		sec, code := b.times[i], codes[i]
		if !byCode && (code != lastCode || col < 0) {
			lastCode, col = code, t.column(code)
		}
		row := t.row(t.slot(key, sec))
		row[topCount]++
		row[topFirst] = min(row[topFirst], sec)
		row[topLast] = max(row[topLast], sec)
		if !byCode {
			row[col]++
		}
	}
	t.total += int64(len(b.times))
}

// foldSegment is a count-first detail pass by node over one segment:
// only the winners' rows, read off the segment's node index and kept
// where the selection marks them, reach addRows.
func (t *Top) foldSegment(g *gather, s *Segment, sel bitmap, kind segMatch) bool {
	if t.only == nil || t.spec.By != TopByNode {
		return false
	}
	idx := s.index()
	for _, node := range t.only.winNodes {
		for _, i := range idx.nodeRows(node) {
			if kind == matchSome && !sel.get(int(i)) {
				continue
			}
			if g.n == blockRows {
				g.flush()
			}
			g.add(s.times[i], s.codes[i], node, 0)
		}
	}
	g.flush()
	return true
}

// topCounts is a count-first ranking's first pass, by node or by serial:
// nothing per key but its count. Keys below dense index counts directly —
// every node id a decoder or a segment can hold is below
// topology.TotalNodes — and the rest (serials, a forged node id) are
// interned behind them.
type topCounts struct {
	by     TopBy
	dense  int
	keys   slotTable
	counts []int64 // [0,dense) by key, then by dense+slot
	total  int64
	rank   []stats.KeyCount // keepTop's scratch
	won    bitmap           // over counts' indexes: keepTop's winners
	// The winners below dense, by node id: by node, the only rows a
	// detail pass reads off a segment (Top.foldSegment).
	winNodes []uint32
}

var topCountsPool = sync.Pool{New: func() any { return new(topCounts) }}

func newTopCounts(by TopBy) *topCounts {
	c := topCountsPool.Get().(*topCounts)
	c.by, c.dense, c.total = by, 0, 0
	if by == TopByNode {
		c.dense = topology.TotalNodes
	}
	if cap(c.counts) < c.dense {
		c.counts = make([]int64, c.dense)
	}
	c.counts = c.counts[:c.dense]
	clear(c.counts)
	return c
}

func (c *topCounts) Release() {
	if 8*(3*cap(c.counts)+2*cap(c.rank))+4*cap(c.winNodes) > maxPooledBytes {
		return
	}
	c.keys.reset()
	topCountsPool.Put(c)
}

func (c *topCounts) needSerial() bool { return c.by == TopBySerial }

// slot is where key's count lives, interning a sparse key first seen.
func (c *topCounts) slot(key uint64) int {
	if key < uint64(c.dense) {
		return int(key)
	}
	return c.sparse(key)
}

func (c *topCounts) sparse(key uint64) int {
	slot, fresh := c.keys.slot(key)
	if fresh {
		c.counts = append(c.counts, 0)
	}
	return c.dense + slot
}

// addRows is the count kernel.
func (c *topCounts) addRows(b block) {
	switch c.by {
	case TopByNode:
		for _, node := range b.nodes[:len(b.times)] {
			slot := c.slot(uint64(node)) // first: it may move counts
			c.counts[slot]++
		}
	case TopBySerial:
		for _, serial := range b.serials[:len(b.times)] {
			slot := c.slot(uint64(serial))
			c.counts[slot]++
		}
	}
	c.total += int64(len(b.times))
}

// foldSegment counts a segment every row of which a ranking by node
// keeps without reading a row: each node's count is its run in the
// segment's node index. A selection goes through addRows.
func (c *topCounts) foldSegment(_ *gather, s *Segment, _ bitmap, kind segMatch) bool {
	if c.by != TopByNode || kind != matchAll {
		return false
	}
	base := s.index().rowBase
	counts := c.counts[:len(base)-1]
	start := base[0]
	for n, end := range base[1:] {
		counts[n] += int64(end - start)
		start = end
	}
	c.total += int64(s.Len())
	return true
}

// each calls fn with every key counted at least once.
func (c *topCounts) each(fn func(key uint64, n int64)) {
	for key, n := range c.counts[:c.dense] {
		if n != 0 {
			fn(uint64(key), n)
		}
	}
	for slot, key := range c.keys.keys {
		fn(key, c.counts[c.dense+slot])
	}
}

// Merge adds another worker's counts.
func (c *topCounts) Merge(o *topCounts) {
	o.each(func(key uint64, n int64) {
		slot := c.slot(key)
		c.counts[slot] += n
	})
	c.total += o.total
}

// keepTop selects the k winners — stats.Leaders, so a key ranked after
// the worst one kept costs a compare — and marks them for the detail
// pass: a bit per count (a few cache lines where the counts are 150 KB)
// and, below dense, the node ids whose rows that pass reads.
func (c *topCounts) keepTop(k int) {
	l := stats.NewLeaders(k, c.rank)
	for key, n := range c.counts[:c.dense] {
		if n != 0 {
			l.Offer(stats.KeyCount{Key: uint64(key), Count: n})
		}
	}
	for slot, key := range c.keys.keys {
		l.Offer(stats.KeyCount{Key: key, Count: c.counts[c.dense+slot]})
	}
	ranked := l.Ranked()
	c.rank = ranked[:0]
	c.won = bitmapIn(c.won.words, len(c.counts), false)
	c.winNodes = c.winNodes[:0]
	for _, kc := range ranked {
		c.won.set(c.slot(kc.Key))
		if kc.Key < uint64(c.dense) {
			c.winNodes = append(c.winNodes, uint32(kc.Key))
		}
	}
}

// keptSparse reports whether a key at or past dense is one of keepTop's
// winners; below dense the winner's bit is won's bit key (Top.addRows
// reads it in line, once a row).
func (c *topCounts) keptSparse(key uint64) bool {
	slot := c.keys.find(key)
	return slot >= 0 && c.won.get(c.dense+slot)
}

// merge folds one offender's scalar state — from another accumulator or
// off the wire — into t and returns its slot, for addCode to follow.
func (t *Top) merge(key uint64, count, first, last int64) int {
	slot := t.slot(key, first)
	row := t.row(slot)
	row[topCount] += count
	row[topFirst] = min(row[topFirst], first)
	row[topLast] = max(row[topLast], last)
	return slot
}

// addCode adds n events of code to slot's breakdown (a by=code ranking
// keeps none).
func (t *Top) addCode(slot int, code int16, n int64) {
	if t.spec.By != TopByCode {
		col := t.column(uint16(code))
		t.row(slot)[col] += n
	}
}

// eachCode calls fn with slot's nonzero per-code counts.
func (t *Top) eachCode(slot int, fn func(code int16, n int64)) {
	row := t.row(slot)
	for col, code := range t.codes.keys {
		if n := row[topHead+col]; n != 0 {
			fn(int16(code), n)
		}
	}
}

// Merge folds another accumulator built with the same spec into t.
// Counts add, first/last take min/max, per-code breakdowns add — all
// commutative and associative, so per-worker partials merge to the
// identical ranking in any order.
func (t *Top) Merge(o *Top) {
	for oslot, key := range o.keys.keys {
		row := o.row(oslot)
		slot := t.merge(key, row[topCount], row[topFirst], row[topLast])
		o.eachCode(oslot, func(code int16, n int64) { t.addCode(slot, code, n) })
	}
	t.total += o.total
}

// TopCard is one rendered offender.
type TopCard struct {
	Node      string           `json:"node,omitempty"`
	Serial    string           `json:"serial,omitempty"`
	Code      string           `json:"code,omitempty"`
	Count     int64            `json:"count"`
	FirstSeen time.Time        `json:"first_seen"`
	LastSeen  time.Time        `json:"last_seen"`
	ByCode    map[string]int64 `json:"by_code,omitempty"`
}

// TopDoc is the rendered ranking. Code is /top's echo of its ?code=
// parameter (see RollupDoc.Code).
type TopDoc struct {
	By          string    `json:"by"`
	K           int       `json:"k"`
	Code        string    `json:"code,omitempty"`
	TotalEvents int64     `json:"total_events"`
	Cards       []TopCard `json:"cards"`
}

// AppendJSON renders the document as the indented JSON encoding/json
// writes for it (cards are never nil: Doc always makes the slice).
func (d TopDoc) AppendJSON(dst []byte) []byte { return jsonw.Append(dst, d) }

// WriteJSON writes the document as one value (see RollupDoc.WriteJSON).
func (d TopDoc) WriteJSON(w *jsonw.W) {
	w.Obj()
	w.Key("by").Str(d.By)
	w.Key("k").Int(int64(d.K))
	w.OmitStr("code", d.Code)
	w.Key("total_events").Int(d.TotalEvents)
	w.Key("cards").Arr()
	var names []string
	for i := range d.Cards {
		c := &d.Cards[i]
		w.Obj()
		w.OmitStr("node", c.Node)
		w.OmitStr("serial", c.Serial)
		w.OmitStr("code", c.Code)
		w.Key("count").Int(c.Count)
		w.Key("first_seen").Time(c.FirstSeen)
		w.Key("last_seen").Time(c.LastSeen)
		names = writeByCode(w, c.ByCode, names, func(s string) string { return s })
		w.EndObj()
	}
	w.EndArr()
	w.EndObj()
}

// Doc ranks the accumulated offenders and renders the top K cards; only
// the winners are materialized. K is echoed as asked (every key when
// K <= 0) but never sizes anything: a caller may ask for more cards than
// there are keys, or than memory could hold.
func (t *Top) Doc() TopDoc {
	all := make([]stats.KeyCount, len(t.keys.keys))
	for slot, key := range t.keys.keys {
		all[slot] = stats.KeyCount{Key: key, Count: t.row(slot)[topCount]}
	}
	k := t.spec.K
	if k <= 0 {
		k = len(all)
	}
	ranked := stats.RankOffenders(all, k)
	doc := TopDoc{
		By:          string(t.spec.By),
		K:           k,
		TotalEvents: t.total,
		Cards:       make([]TopCard, 0, len(ranked)),
	}
	for _, kc := range ranked {
		slot := t.keys.find(kc.Key)
		row := t.row(slot)
		card := TopCard{
			Count:     row[topCount],
			FirstSeen: time.Unix(row[topFirst], 0).UTC(),
			LastSeen:  time.Unix(row[topLast], 0).UTC(),
		}
		switch t.spec.By {
		case TopByNode:
			card.Node = topology.CNameOf(topology.NodeID(kc.Key))
		case TopBySerial:
			card.Serial = gpu.Serial(kc.Key).String()
		case TopByCode:
			card.Code = xid.Code(int16(kc.Key)).String()
		}
		if t.spec.By != TopByCode {
			card.ByCode = make(map[string]int64)
			t.eachCode(slot, func(code int16, n int64) { card.ByCode[xid.Code(code).String()] = n })
		}
		doc.Cards = append(doc.Cards, card)
	}
	return doc
}

// TopEvents computes the identical ranking from materialized events
// alone — the batch reference (see RollupEvents).
func TopEvents(events []console.Event, spec TopSpec) (TopDoc, error) {
	t, err := NewTop(spec)
	if err != nil {
		return TopDoc{}, err
	}
	defer t.Release()
	rows := newGather(t)
	defer rows.release()
	rows.events(events, nil)
	return t.Doc(), nil
}
