package store

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"time"

	"titanre/internal/console"
	"titanre/internal/jsonw"
	"titanre/internal/stats"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Time-bucketed rollups — the paper's fleet-wide aggregates (events per
// hour by code, per-cabinet heatmaps). A Rollup is a rowSink: fold feeds
// its one addRows kernel blocks of column values straight off sealed
// segments and off the retained tail's events, never materializing
// console.Event values for sealed rows. RollupEvents feeds the same
// kernel from a plain event slice — the batch reference the equivalence
// tests compare the segment path against.

// RollupSpec is the shape of one rollup: which dimensions to group by
// and the bucket width. Which rows are counted is not its business — a
// filter is a Predicate, compiled to the fold's one Matcher.
type RollupSpec struct {
	ByCode    bool
	ByCabinet bool
	ByCage    bool
	ByNode    bool

	// Bucket is the time-bucket width; events land in the bucket
	// floor(t/Bucket)*Bucket. Must be a positive whole number of
	// seconds (the store's native resolution).
	Bucket time.Duration
}

// GroupBy adds one group-by dimension by the name every query surface
// spells it with (/rollup?by=, titanreport -rollup, titanql's by stage)
// and reports whether dim names one.
func (spec *RollupSpec) GroupBy(dim string) bool {
	switch dim {
	case "code":
		spec.ByCode = true
	case "cabinet":
		spec.ByCabinet = true
	case "cage":
		spec.ByCage = true
	case "node":
		spec.ByNode = true
	default:
		return false
	}
	return true
}

// Dims lists the grouped dimensions by those names, in canonical order —
// the "by" echo of a document and of a canonical query.
func (spec RollupSpec) Dims() []string {
	dims := make([]string, 0, 4)
	for i, on := range [...]bool{spec.ByCode, spec.ByCabinet, spec.ByCage, spec.ByNode} {
		if on {
			dims = append(dims, [...]string{"code", "cabinet", "cage", "node"}[i])
		}
	}
	return dims
}

// Validate reports whether the bucket is a positive whole number of
// seconds (group-by dimensions are valid in any combination).
func (spec RollupSpec) Validate() error {
	if spec.Bucket < time.Second {
		return fmt.Errorf("store: rollup bucket %v must be at least 1s", spec.Bucket)
	}
	if spec.Bucket%time.Second != 0 {
		return fmt.Errorf("store: rollup bucket %v must be whole seconds", spec.Bucket)
	}
	return nil
}

// A cell's group-by coordinates pack into one uint64 in canonical order
// — bucket index, code, location — so canonical order is ascending key.
// Dimensions the spec does not group by stay 0. Code and bucket index
// are biased to sort as unsigned; a bucket index outside ±2^32 (bucket
// 1s: before 1834 or after 2106) clamps to the nearest representable
// bucket. The location (see loc) is 15 bits because topology.TotalNodes
// < 1<<15.
const (
	locMask     = 1<<15 - 1
	codeShift   = 15
	bucketShift = codeShift + 16
	bucketBias  = 1 << (63 - bucketShift)
	cellMask    = 1<<bucketShift - 1 // a key's code and location bits
)

// Rollup accumulates bucketed counts into cells that are kept in
// canonical order as they are made, so no render sorts them and none
// looks a count up: ParallelRollupAcc (or MergeRollupPartials)
// populates it; WriteJSON and WritePartialJSON render it (Doc and
// Partial build the same answers as structs); Release returns it to the
// pool.
//
// Rows fold one time bucket at a time. The open bucket counts into a
// dense histogram over (code column, compact location) and, when a row
// of a later bucket arrives, closes: its non-empty entries, taken in
// canonical (code, location) order off per-column bitmaps, are appended
// to the ordered cells. A row of a bucket already closed (or of a code
// past the histogram's columns) goes to a slot table of late cells,
// which finish sorts and merges into the ordered cells before a render.
// Grouped by node there are too many locations to keep dense, so the
// open bucket's cells are interned in a slot table of their own and
// closed in key order.
type Rollup struct {
	spec    RollupSpec
	bs      int64 // bucket width, seconds
	total   int64
	visited int64 // rows the fold handed the kernel (ParallelRollupAcc)

	// The cells of closed buckets, ascending by key.
	cells []cell

	// Late cells, interned by key; finish merges them into cells.
	late       slotTable
	lateCounts []int64

	// The open bucket: state says whether one is open, and once one has
	// closed (shut) bucket holds the last one's key bits; a row inside
	// the window [lo, lo+bs) costs one compare, not a division.
	state  foldState
	bucket uint64
	lo     int64

	// The dense histogram (not grouped by node): hist[col<<shift|loc] is
	// the open bucket's count for the code in column col at compact
	// location loc. A column spans 1<<shift entries, a whole number of
	// 64-bit words when a location is grouped, so an entry's index is
	// also its bit in marks, the bitmap closeBucket reads the bucket's
	// non-empty entries off in order. touched lists the entries a sparse
	// run made non-empty, and used (no location grouped) the columns
	// with a row. colOf maps a code (masked to 0 when code is not
	// grouped) to its column+1, first come first served; colCode is a
	// column's code and byKey the columns in ascending code order. locOf
	// maps a node to its compact location, which is the key's location
	// bits shifted down by locShift.
	hist     []int64
	marks    []uint64
	touched  []int32
	ntouched int
	used     uint64
	scan     bool // the open bucket closes by a scan of every column, not off touched
	colOf    [1 << 16]uint8
	colCode  []uint16
	byKey    []uint8
	codeMask uint16
	locOf    []uint16
	nlocs    int
	shift    uint
	locShift uint

	// Grouped by node: the open bucket's cells by code and location bits.
	cur       slotTable
	curCounts []int64

	// Scratch: merge's output, a closing bucket's sort, a ranked order
	// or finish's late cells.
	merged  []cell
	sorting []uint64
	rank    []cell
}

// cell is one rollup cell: its packed key and its count.
type cell = stats.KeyCount

type foldState uint8

const (
	noBucket   foldState = iota // no row yet
	bucketOpen                  // bucket is open
	bucketShut                  // no bucket open; bucket was the last
)

// maxCols bounds the histogram's code columns (used is one word); a
// code past them counts as a late cell.
const maxCols = 64

var rollupPool = sync.Pool{New: func() any { return new(Rollup) }}

// NewRollup validates spec and returns an empty accumulator.
func NewRollup(spec RollupSpec) (*Rollup, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newRollup(spec), nil
}

// newRollup borrows an empty accumulator for an already validated spec.
func newRollup(spec RollupSpec) *Rollup {
	r := rollupPool.Get().(*Rollup)
	r.spec, r.bs, r.total, r.visited = spec, int64(spec.Bucket/time.Second), 0, 0
	r.state, r.used, r.scan, r.ntouched = noBucket, 0, false, 0
	for _, code := range r.colCode {
		r.colOf[code] = 0
	}
	r.hist, r.marks, r.touched = r.hist[:0], r.marks[:0], r.touched[:0]
	r.colCode, r.byKey = r.colCode[:0], r.byKey[:0]
	r.codeMask = 0
	if spec.ByCode {
		r.codeMask = 0xFFFF
	}
	lt := locTableFor(spec)
	r.locOf, r.nlocs, r.locShift, r.shift = lt.tab, lt.n, lt.shift, 0
	if lt.n > 1 {
		r.shift = uint(max(6, bits.Len(uint(lt.n-1))))
	}
	return r
}

// Release returns the accumulator to the pool (see Top.Release).
func (r *Rollup) Release() {
	words := 2*(cap(r.cells)+cap(r.merged)+cap(r.rank)) + cap(r.hist) + cap(r.marks) + cap(r.touched)/2 +
		3*(cap(r.late.keys)+cap(r.cur.keys)) + cap(r.sorting)
	if 8*words > maxPooledBytes {
		return
	}
	r.cells = r.cells[:0]
	r.late.reset()
	r.lateCounts = r.lateCounts[:0]
	r.cur.reset()
	r.curCounts = r.curCounts[:0]
	// The histogram is not cleared: column clears each column as the next
	// fold adds it.
	rollupPool.Put(r)
}

// locTable maps node -> location for one way to group by location: the
// compact location the histogram is indexed by, or grouped by node the
// packed location itself.
type locTable struct {
	once  sync.Once
	tab   []uint16
	n     int  // 1 + the largest entry
	shift uint // key location bits = entry << shift
}

// locTables holds a locTable for each combination of cabinet, cage and
// node, each built on first use.
var locTables [8]locTable

func locTableFor(spec RollupSpec) *locTable {
	i := 0
	for b, on := range [...]bool{spec.ByCabinet, spec.ByCage, spec.ByNode} {
		if on {
			i |= 1 << b
		}
	}
	t := &locTables[i]
	t.once.Do(func() {
		if spec.ByCabinet && !spec.ByCage && !spec.ByNode {
			t.shift = 2 // the cage bits are always 0
		}
		t.tab = make([]uint16, topology.TotalNodes)
		for node := range t.tab {
			t.tab[node] = uint16(spec.loc(uint64(node)) >> t.shift)
			t.n = max(t.n, int(t.tab[node])+1)
		}
	})
	return t
}

// bucketKey is the key bits of the bucket holding sec, and the bucket's
// first second.
func (r *Rollup) bucketKey(sec int64) (key uint64, lo int64) {
	idx := sec / r.bs
	if sec < 0 && sec%r.bs != 0 {
		idx-- // floor, not truncate, for pre-epoch times
	}
	return uint64(min(max(idx, -bucketBias), bucketBias-1)+bucketBias) << bucketShift, idx * r.bs
}

// enter moves the open bucket onto sec's, closing the open one when
// sec's is later. It reports false, with sec's bucket key, when that
// bucket is already closed or precedes the open one: the row is late.
func (r *Rollup) enter(sec int64) (uint64, bool) {
	key, lo := r.bucketKey(sec)
	switch {
	case r.state == bucketOpen && key == r.bucket: // a clamped bucket: same key, next window
	case r.state == bucketOpen && key < r.bucket, r.state == bucketShut && key <= r.bucket:
		return key, false
	case r.state == bucketOpen:
		r.closeBucket()
	}
	r.state, r.bucket, r.lo = bucketOpen, key, lo
	return key, true
}

// code is a code's key bits: 0 unless grouped by code.
func (r *Rollup) code(code uint16) uint64 {
	return uint64((code&r.codeMask)^(0x8000&r.codeMask)) << codeShift
}

// column is code's histogram column, given one on first sight: -1 once
// maxCols others hold them all.
func (r *Rollup) column(code uint16) int {
	code &= r.codeMask
	if c := r.colOf[code]; c != 0 {
		return int(c) - 1
	}
	c := len(r.colCode)
	if c == maxCols {
		return -1
	}
	r.colOf[code] = uint8(c + 1)
	r.colCode = append(r.colCode, code)
	at, _ := slices.BinarySearchFunc(r.byKey, r.code(code), func(col uint8, key uint64) int { return cmp.Compare(r.code(r.colCode[col]), key) })
	r.byKey = slices.Insert(r.byKey, at, uint8(c))
	span := 1 << r.shift
	r.hist = slices.Grow(r.hist, span)[:len(r.hist)+span]
	clear(r.hist[c<<r.shift:])
	if r.nlocs > 1 {
		r.marks = slices.Grow(r.marks, span/64)[:len(r.marks)+span/64]
		clear(r.marks[c*span/64:])
		n := len(r.hist) + 1 // a sparse run writes one entry past those it keeps
		r.touched = slices.Grow(r.touched, n-len(r.touched))[:n]
	}
	return c
}

// addLate counts n rows into the late cell key.
func (r *Rollup) addLate(key uint64, n int64) {
	slot, fresh := r.late.slot(key)
	if fresh {
		r.lateCounts = append(r.lateCounts, 0)
	}
	r.lateCounts[slot] += n
}

// lateRow counts one row of the open bucket that the histogram cannot
// (its code has no column, its node no table entry), or one of a closed
// bucket (key is then that bucket's).
func (r *Rollup) lateRow(bucket uint64, code uint16, node uint32) {
	r.addLate(bucket|r.code(code)|r.spec.loc(uint64(node)), 1)
}

// loc packs the location a node is grouped under so that ascending loc is
// canonical (cabinet, cage, node) order over the grouped dimensions.
// Grouped by node that is the node id itself, cabinet and cage being
// monotone in it — unless cage is grouped and cabinet is not, when cage
// must outrank the rest of the id: cage<<13 | cabinet<<5 | node in cage.
// Without node it is cabinet<<2 | cage, whichever of them are grouped.
func (spec RollupSpec) loc(node uint64) uint64 {
	cab, cage := node/topology.NodesPerCabinet, node/topology.NodesPerCage%topology.CagesPerCabinet
	switch {
	case !spec.ByNode:
		var loc uint64
		if spec.ByCabinet {
			loc = cab << 2
		}
		if spec.ByCage {
			loc |= cage
		}
		return loc & locMask
	case spec.ByCage && !spec.ByCabinet:
		return (cage<<13 | cab<<5 | node%topology.NodesPerCage) & locMask
	}
	return node & locMask
}

// unloc is loc's inverse: the cabinet, cage and node (0 unless grouped by
// node) a packed location names.
func (r *Rollup) unloc(loc uint64) (cab, cage, node uint64) {
	switch {
	case !r.spec.ByNode:
		return loc >> 2, loc & 3, 0
	case r.spec.ByCage && !r.spec.ByCabinet:
		cab, cage = loc>>5&0xFF, loc>>13
		return cab, cage, cab*topology.NodesPerCabinet + cage*topology.NodesPerCage + loc%topology.NodesPerCage
	}
	return loc / topology.NodesPerCabinet, loc / topology.NodesPerCage % topology.CagesPerCabinet, loc
}

// addRows is the kernel: count a block of rows the fold's matcher chose,
// so every row lands in a cell. The block is taken a bucket run at a
// time — consecutive rows of the open bucket — found by one time compare
// a row, or in a block of nondecreasing times by a galloping search.
func (r *Rollup) addRows(b block) {
	times, codes, nodes := b.times, b.codes[:len(b.times)], b.nodes[:len(b.times)]
	for i := 0; i < len(times); {
		if r.state != bucketOpen || uint64(times[i]-r.lo) >= uint64(r.bs) {
			if key, ok := r.enter(times[i]); !ok {
				r.lateRow(key, codes[i], nodes[i])
				i++
				continue
			}
		}
		j := i + 1
		if b.sorted {
			j = runEnd(times, j, r.lo, r.bs)
		} else {
			for j < len(times) && uint64(times[j]-r.lo) < uint64(r.bs) {
				j++
			}
		}
		switch {
		case r.spec.ByNode:
			r.countCells(codes[i:j], nodes[i:j])
		case r.nlocs > 1:
			r.countLocs(codes[i:j], nodes[i:j])
		default:
			r.countCodes(codes[i:j], nodes[i:j])
		}
		i = j
	}
	r.total += int64(len(times))
}

// runEnd is where the run of rows inside [lo, lo+bs) that reaches i-1
// ends, times being nondecreasing: a galloping search, so a run of n
// rows costs about 2·log n compares.
func runEnd(times []int64, i int, lo, bs int64) int {
	hi, step := i, 1
	for hi < len(times) && times[hi]-lo < bs {
		i = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(times))
	for i < hi { // times[i-1] is inside, times[hi] (if any) past
		m := int(uint(i+hi) >> 1)
		if times[m]-lo < bs {
			i = m + 1
		} else {
			hi = m
		}
	}
	return i
}

// countLocs counts one bucket's rows into the histogram by code and
// location. A run at least as long as the histogram's real entries is
// counted bare and leaves the bucket to close by a scan of every column,
// which then costs no more than the run did. A shorter run lists each
// entry it makes non-empty in touched — written every row, kept by
// stepping ntouched past it only then, so a row costs no branch on what
// it found — and the bucket closes off those entries alone.
func (r *Rollup) countLocs(codes []uint16, nodes []uint32) {
	if len(nodes) >= len(r.colCode)*r.nlocs && len(r.colCode) > 0 {
		r.scan = true
		if r.codeMask == 0 {
			hist, locOf := r.hist[:r.nlocs], r.locOf
			for _, node := range nodes {
				if int(node) >= len(locOf) {
					r.lateRow(r.bucket, 0, node)
					continue
				}
				hist[locOf[node]]++
			}
			return
		}
	}
	hist, touched, n, locOf, shift, scan := r.hist, r.touched, r.ntouched, r.locOf, r.shift, r.scan
	for k, node := range nodes {
		c := int(r.colOf[codes[k]&r.codeMask]) - 1
		if c < 0 || int(node) >= len(locOf) {
			c = r.column(codes[k])
			hist, touched = r.hist, r.touched
			if c < 0 || int(node) >= len(locOf) {
				r.lateRow(r.bucket, codes[k], node)
				continue
			}
		}
		i := c<<shift | int(locOf[node])
		h := hist[i]
		if !scan {
			touched[n] = int32(i)
			if h == 0 {
				n++
			}
		}
		hist[i] = h + 1
	}
	r.ntouched = n
}

// countCodes counts one bucket's rows into the histogram by code alone
// (one location), or all into column 0 when code is not grouped either.
// Rows come in runs of one code, and a run is counted at once: a count
// bumped row by row would wait on its own last store.
func (r *Rollup) countCodes(codes []uint16, nodes []uint32) {
	if r.codeMask == 0 {
		r.column(0)
		r.hist[0] += int64(len(codes))
		r.used |= 1
		return
	}
	for k := 0; k < len(codes); {
		code, j := codes[k], k+1
		for j < len(codes) && codes[j] == code {
			j++
		}
		if c := r.column(code); c >= 0 {
			r.hist[c] += int64(j - k)
			r.used |= 1 << c
		} else {
			for ; k < j; k++ {
				r.lateRow(r.bucket, code, nodes[k])
			}
		}
		k = j
	}
}

// countCells counts one bucket's rows grouped by node into the open
// bucket's cell table. Consecutive rows of one cell share the lookup.
func (r *Rollup) countCells(codes []uint16, nodes []uint32) {
	locOf, last, slot := r.locOf, ^uint64(0), 0
	for k, node := range nodes {
		var key uint64
		if int(node) < len(locOf) {
			key = uint64(locOf[node])
		} else {
			key = r.spec.loc(uint64(node))
		}
		key |= r.code(codes[k])
		if key != last {
			s, fresh := r.cur.slot(key)
			if fresh {
				r.curCounts = append(r.curCounts, 0)
			}
			last, slot = key, s
		}
		r.curCounts[slot]++
	}
}

// closeBucket appends the open bucket's cells to the ordered cells, in key
// order, and empties the histogram (or the cell table) for the next.
func (r *Rollup) closeBucket() {
	r.state = bucketShut
	if r.spec.ByNode {
		// Code and location bits above the slot: one integer sort puts the
		// cells in key order and still names each one's count.
		r.sorting = r.sorting[:0]
		for slot, key := range r.cur.keys {
			r.sorting = append(r.sorting, key<<32|uint64(slot))
		}
		slices.Sort(r.sorting)
		for _, v := range r.sorting {
			r.cells = append(r.cells, cell{Key: r.bucket | v>>32, Count: r.curCounts[uint32(v)]})
		}
		r.cur.reset()
		r.curCounts = r.curCounts[:0]
		return
	}
	if r.nlocs == 1 {
		for _, c := range r.byKey {
			if r.used>>c&1 != 0 {
				r.cells = append(r.cells, cell{Key: r.bucket | r.code(r.colCode[c]), Count: r.hist[c]})
				r.hist[c] = 0
			}
		}
		r.used = 0
		return
	}
	used := ^uint64(0)
	if !r.scan {
		used = 0
		for _, i := range r.touched[:r.ntouched] {
			r.marks[i>>6] |= 1 << (i & 63)
			used |= 1 << (i >> r.shift)
		}
	}
	words := 1 << r.shift / 64
	for _, c := range r.byKey {
		if used>>c&1 == 0 {
			continue
		}
		key, base := r.bucket|r.code(r.colCode[c]), int(c)<<r.shift
		if r.scan {
			for l, n := range r.hist[base : base+r.nlocs] {
				if n != 0 {
					r.cells = append(r.cells, cell{Key: key | uint64(l)<<r.locShift, Count: n})
					r.hist[base+l] = 0
				}
			}
			continue
		}
		marks := r.marks[base/64 : base/64+words]
		for wi, w := range marks {
			if w == 0 {
				continue
			}
			for ; w != 0; w &= w - 1 {
				l := wi<<6 | bits.TrailingZeros64(w)
				r.cells = append(r.cells, cell{Key: key | uint64(l)<<r.locShift, Count: r.hist[base+l]})
				r.hist[base+l] = 0
			}
			marks[wi] = 0
		}
	}
	r.ntouched, r.scan = 0, false
}

// finish closes the open bucket and merges the late cells into the
// ordered ones, which then hold every cell: what a render or a Merge
// reads. Idempotent.
func (r *Rollup) finish() {
	if r.state == bucketOpen {
		r.closeBucket()
	}
	if len(r.late.keys) == 0 {
		return
	}
	r.rank = r.rank[:0]
	for slot, key := range r.late.keys {
		r.rank = append(r.rank, cell{Key: key, Count: r.lateCounts[slot]})
	}
	slices.SortFunc(r.rank, func(a, b cell) int { return cmp.Compare(a.Key, b.Key) })
	r.merge(r.rank)
	r.late.reset()
	r.lateCounts = r.lateCounts[:0]
}

// merge adds the ordered cells o into r's, one linear pass.
func (r *Rollup) merge(o []cell) {
	m, i, j := r.merged[:0], 0, 0
	for i < len(r.cells) && j < len(o) {
		switch a, b := r.cells[i], o[j]; {
		case a.Key < b.Key:
			m = append(m, a)
			i++
		case a.Key > b.Key:
			m = append(m, b)
			j++
		default:
			m = append(m, cell{Key: a.Key, Count: a.Count + b.Count})
			i, j = i+1, j+1
		}
	}
	m = append(append(m, r.cells[i:]...), o[j:]...)
	r.cells, r.merged = m, r.cells
}

// Total reports how many rows the accumulator has counted.
func (r *Rollup) Total() int64 { return r.total }

// Visited reports how many rows the fold that built the accumulator
// handed its kernel (see Top.Visited).
func (r *Rollup) Visited() int64 { return r.visited }

// needSerial: no rollup dimension reads the card serial.
func (r *Rollup) needSerial() bool { return false }

// Merge folds another accumulator built with the same spec into r.
// Cell addition is commutative and associative, so merging per-worker
// partials in any order renders the identical document — the property
// the segment-parallel executor's determinism rests on.
func (r *Rollup) Merge(o *Rollup) {
	r.finish()
	o.finish()
	r.merge(o.cells)
	// Shut at the last cell's bucket: a row folded after this at or
	// before it is late.
	if n := len(r.cells); n > 0 {
		if last := r.cells[n-1].Key &^ cellMask; r.state == noBucket || last > r.bucket {
			r.bucket = last
		}
		r.state = bucketShut
	}
	r.total += o.total
}

// RollupCell is one rendered cell. Only the grouped dimensions are
// present; Count is the number of events in the cell.
type RollupCell struct {
	Bucket  time.Time `json:"bucket"`
	Code    string    `json:"code,omitempty"`
	Cabinet *int      `json:"cabinet,omitempty"`
	Cage    *int      `json:"cage,omitempty"`
	Node    string    `json:"node,omitempty"`
	Count   int64     `json:"count"`
}

// RollupDoc is the rendered rollup: the spec echoed back plus the
// cells, sorted by (bucket, code, cabinet, cage, node) for a canonical
// byte representation. Code is /rollup's echo of its ?code= parameter,
// set by whoever unwraps the document for that endpoint (titanql's
// Result.Bare); the accumulator knows nothing of the filter.
type RollupDoc struct {
	By            []string     `json:"by"`
	BucketSeconds int64        `json:"bucket_seconds"`
	Code          string       `json:"code,omitempty"`
	TotalEvents   int64        `json:"total_events"`
	Cells         []RollupCell `json:"cells"`
}

// Doc builds the accumulated rollup as a struct, deterministically: two
// rollups fed the same events in any order and any segment/tail split
// build equal documents. It is what RollupEvents and ParallelRollup
// return and, under encoding/json, the oracle WriteJSON's bytes are
// tested against; no serving path goes through it.
func (r *Rollup) Doc() RollupDoc { return r.RankedDoc(0) }

// RankedDoc is Doc keeping only the k highest-count cells, ties in
// canonical order — what a stable count-descending sort of Doc's cells
// would keep — or every cell when k <= 0.
func (r *Rollup) RankedDoc(k int) RollupDoc {
	cells := r.unpack(r.order(k))
	doc := RollupDoc{
		By:            r.spec.Dims(),
		BucketSeconds: r.bs,
		TotalEvents:   r.total,
		Cells:         make([]RollupCell, 0, len(cells)),
	}
	codeNames := make(map[int16]string)  // a code is spelled once, not once per cell
	ints := make([]int, 0, 2*len(cells)) // one backing array behind every *int: sized once, so never moved
	for _, c := range cells {
		cell := RollupCell{Bucket: time.Unix(c.Bucket, 0).UTC(), Count: c.Count}
		if r.spec.ByCode {
			name, ok := codeNames[c.Code]
			if !ok {
				name = xid.Code(c.Code).String()
				codeNames[c.Code] = name
			}
			cell.Code = name
		}
		if r.spec.ByCabinet {
			ints = append(ints, int(c.Cab))
			cell.Cabinet = &ints[len(ints)-1]
		}
		if r.spec.ByCage {
			ints = append(ints, int(c.Cage))
			cell.Cage = &ints[len(ints)-1]
		}
		if r.spec.ByNode {
			cell.Node = topology.CNameOf(topology.NodeID(c.Node))
		}
		doc.Cells = append(doc.Cells, cell)
	}
	return doc
}

// order is the cells in the order a document lists them: the ordered
// cells themselves, canonical (bucket, code, cabinet, cage, node) order,
// or for k > 0 the k highest counts first, in scratch the accumulator
// keeps (valid until the next call). The packed keys are what is
// ranked, so only the winners are ever spelled out.
func (r *Rollup) order(k int) []cell {
	r.finish()
	if k <= 0 {
		return r.cells
	}
	r.rank = append(r.rank[:0], r.cells...)
	return stats.RankOffenders(r.rank, k)
}

// WriteJSON writes the rollup document — RankedDoc(k) with code as its
// "code" echo — as the indented JSON encoding/json writes for that
// struct, straight off the packed keys.
func (r *Rollup) WriteJSON(w *jsonw.W, k int, code string) {
	w.Obj()
	w.Key("by").Arr()
	for _, dim := range r.spec.Dims() {
		w.Str(dim)
	}
	w.EndArr()
	w.Key("bucket_seconds").Int(r.bs)
	w.OmitStr("code", code)
	w.Key("total_events").Int(r.total)
	r.writeCells(w, r.order(k), false)
	w.EndObj()
}

// WritePartialJSON writes Partial the same way: the replica's ?partial=1
// face. The spec echo, a handful of irregular fields once per answer,
// goes through encoding/json.
func (r *Rollup) WritePartialJSON(w *jsonw.W) {
	w.Obj()
	w.Key("spec").Any(r.spec)
	w.Key("total").Int(r.total)
	r.writeCells(w, r.order(0), true)
	w.EndObj()
}

// writeCells is the one cell renderer: the "cells" member, a cell per
// key in the order given, each appended to the buffer whole — no cell
// struct, no per-cell string. A cell is a head, the text up to and
// including its code, rebuilt only when the bucket or code bits change
// (keys arrive in runs of both); then its location members, spelled from
// the key's low bits; then the count. The member fragments carry their
// comma and indentation, worked out once per document. raw selects
// RollupPartialCell's spelling over RollupCell's: numbers for the time,
// the code and the node, cab for cabinet, and zero members omitted.
func (r *Rollup) writeCells(w *jsonw.W, cells []cell, raw bool) {
	w.Key("cells").Arr()
	in, out := ","+w.Line(1), w.Line(0)
	cab, cage, node, count := in+`"cabinet": `, in+`"cage": `, in+`"node": "`, in+`"count": `
	if raw {
		cab, node = in+`"cab": `, in+`"node": `
	}
	var headBuf [96]byte
	head, run := headBuf[:0], ^uint64(0)
	for _, cl := range cells {
		key := cl.Key
		if key>>codeShift != run {
			run = key >> codeShift
			sec, code := r.bucketCode(key)
			head = append(append(head[:0], '{'), in[1:]...)
			if raw {
				head = strconv.AppendInt(append(head, `"bucket": `...), sec, 10)
				if code != 0 {
					head = strconv.AppendInt(append(append(head, in...), `"code": `...), int64(code), 10)
				}
			} else {
				head = append(time.Unix(sec, 0).UTC().AppendFormat(append(head, `"bucket": "`...), time.RFC3339), '"')
				if r.spec.ByCode {
					head = append(xid.Code(code).Append(append(append(head, in...), `"code": "`...)), '"')
				}
			}
		}
		w.Elem()
		buf := append(w.Buf, head...)
		c, g, n := r.unloc(key & locMask)
		if r.spec.ByCabinet && (c != 0 || !raw) {
			buf = strconv.AppendUint(append(buf, cab...), c, 10)
		}
		if r.spec.ByCage && (g != 0 || !raw) {
			buf = strconv.AppendUint(append(buf, cage...), g, 10)
		}
		switch {
		case !r.spec.ByNode:
		case !raw:
			buf = append(append(append(buf, node...), topology.CNameOf(topology.NodeID(n))...), '"')
		case n != 0:
			buf = strconv.AppendUint(append(buf, node...), n, 10)
		}
		buf = strconv.AppendInt(append(buf, count...), cl.Count, 10)
		w.Buf = append(append(buf, out...), '}')
	}
	w.EndArr()
}

// bucketCode is the bucket's first second and the code (0 unless grouped
// by code) a packed key names.
func (r *Rollup) bucketCode(key uint64) (sec int64, code int16) {
	sec = (int64(key>>bucketShift) - bucketBias) * r.bs
	if r.spec.ByCode {
		code = int16(uint16(key>>codeShift) ^ 0x8000)
	}
	return sec, code
}

// RollupEvents computes the identical rollup from materialized events
// alone — the batch-pipeline reference the equivalence tests (and the
// benchmark's oracle) compare the segment-streamed answer against. It
// stays a plain loop over the events on purpose: it shares the addRows
// kernel but none of the segment machinery it checks.
func RollupEvents(events []console.Event, spec RollupSpec) (RollupDoc, error) {
	r, err := NewRollup(spec)
	if err != nil {
		return RollupDoc{}, err
	}
	defer r.Release()
	rows := newGather(r)
	defer rows.release()
	rows.events(events, nil)
	return r.Doc(), nil
}
