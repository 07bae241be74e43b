package store

import (
	"fmt"
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
// — bucket index, code, location — so cells are interned by a slotTable
// and sorted by one integer compare. Dimensions the spec does not group
// by stay 0. Code and bucket index are biased to sort as unsigned; a
// bucket index outside ±2^32 (bucket 1s: before 1834 or after 2106)
// clamps to the nearest representable bucket. The location (see loc) is
// 15 bits because topology.TotalNodes < 1<<15.
const (
	locMask     = 1<<15 - 1
	codeShift   = 15
	bucketShift = codeShift + 16
	bucketBias  = 1 << (63 - bucketShift)
)

// Rollup accumulates bucketed counts: a slotTable over packed cell keys
// and the count per slot. ParallelRollupAcc (or MergeRollupPartials)
// populates it; WriteJSON and WritePartialJSON render it (Doc and Partial
// build the same answers as structs); Release returns it to the pool.
type Rollup struct {
	spec    RollupSpec
	bs      int64 // bucket width, seconds
	cells   slotTable
	counts  []int64
	total   int64
	visited int64 // rows the fold handed the kernel (ParallelRollupAcc)

	// Rows arrive nearly time-ordered, so the previous row's bucket is
	// kept as the window [lo, lo+bs) it covers together with its key
	// bits: a row inside the window costs one compare, not a division.
	lo     int64
	bucket uint64

	// Inside one bucket the cells are few — codes seen × locations — so
	// a dense window over (code column, packed location) remembers each
	// one's slot: win[col*locs+loc] is gen<<32 | slot+1, and holds for
	// the current bucket only, seek bumping gen instead of clearing. It
	// is purely a cache in front of cells — a miss, a 17th code or a row
	// out of time order falls through to the slot table — so any row
	// order stays correct. locOf resolves node -> packed location by
	// table. Grouping by node has neither: 32 Ki locations a code are too
	// many to keep dense, and loc is then a mask, not a division.
	win   []uint64
	gen   uint64
	locs  int // locations a code column spans: winLocs, or 1 when no location is grouped
	locOf []uint16
	colOf [256]uint8 // int8-range code's low byte -> its column+1, 0 until it is given one
	ncols int

	scratch []uint64         // order's backing array
	rank    []stats.KeyCount // order's, when it ranks
}

const (
	winCols = 16      // code columns the window holds
	winLocs = 1 << 10 // > the largest cabinet<<2|cage
)

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
	r.spec, r.bs, r.total, r.visited, r.ncols = spec, int64(spec.Bucket/time.Second), 0, 0, 0
	r.colOf = [256]uint8{}
	r.locOf, r.locs, r.win = nil, 1, r.win[:0]
	if !spec.ByNode {
		if spec.ByCabinet || spec.ByCage {
			r.locOf, r.locs = r.locTable(), winLocs
		}
		if cap(r.win) < winCols*winLocs {
			r.win, r.gen = make([]uint64, 0, winCols*winLocs), 0
		}
		r.win = r.win[:winCols*r.locs]
	}
	r.seek(0)
	return r
}

// Release returns the accumulator to the pool (see Top.Release).
func (r *Rollup) Release() {
	if 8*(3*cap(r.cells.keys)+cap(r.scratch)+2*cap(r.rank)) > maxPooledBytes {
		return
	}
	r.cells.reset()
	r.counts = r.counts[:0]
	rollupPool.Put(r)
}

// locTables holds node -> loc for the three ways to group by location
// without the node, each built on first use.
var locTables [4]struct {
	once sync.Once
	tab  []uint16
}

func (r *Rollup) locTable() []uint16 {
	i := 0
	if r.spec.ByCabinet {
		i |= 1
	}
	if r.spec.ByCage {
		i |= 2
	}
	t := &locTables[i]
	t.once.Do(func() {
		t.tab = make([]uint16, topology.TotalNodes)
		for node := range t.tab {
			t.tab[node] = uint16(r.loc(uint64(node)))
		}
	})
	return t.tab
}

// seek moves the bucket window onto sec.
func (r *Rollup) seek(sec int64) {
	idx := sec / r.bs
	if sec < 0 && sec%r.bs != 0 {
		idx-- // floor, not truncate, for pre-epoch times
	}
	r.lo = idx * r.bs
	r.bucket = uint64(min(max(idx, -bucketBias), bucketBias-1)+bucketBias) << bucketShift
	if r.gen++; r.gen >= 1<<32 {
		clear(r.win[:cap(r.win)])
		r.gen = 1
	}
}

// column is code's window column, first come first served: -1 for a code
// outside int8 (no XID is) or once winCols others hold the columns.
func (r *Rollup) column(code uint16) int {
	if int16(code) != int16(int8(code)) {
		return -1
	}
	if c := r.colOf[uint8(code)]; c != 0 {
		return int(c) - 1
	}
	if r.ncols == winCols {
		return -1
	}
	r.ncols++
	r.colOf[uint8(code)] = uint8(r.ncols)
	return r.ncols - 1
}

// slot interns key, giving a new cell a zero count.
func (r *Rollup) slot(key uint64) int {
	slot, fresh := r.cells.slot(key)
	if fresh {
		r.counts = append(r.counts, 0)
	}
	return slot
}

// loc packs the location a node is grouped under so that ascending loc is
// canonical (cabinet, cage, node) order over the grouped dimensions.
// Grouped by node that is the node id itself, cabinet and cage being
// monotone in it — unless cage is grouped and cabinet is not, when cage
// must outrank the rest of the id: cage<<13 | cabinet<<5 | node in cage.
// Without node it is cabinet<<2 | cage, whichever of them are grouped.
func (r *Rollup) loc(node uint64) uint64 {
	cab, cage := node/topology.NodesPerCabinet, node/topology.NodesPerCage%topology.CagesPerCabinet
	switch {
	case !r.spec.ByNode:
		var loc uint64
		if r.spec.ByCabinet {
			loc = cab << 2
		}
		if r.spec.ByCage {
			loc |= cage
		}
		return loc & locMask
	case r.spec.ByCage && !r.spec.ByCabinet:
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
// so every row lands in a cell. The block is taken a run
// at a time — consecutive rows of one bucket and, when grouping by code,
// one code — which is one cell when no location is grouped, and
// otherwise one row a node into cells that share the run's key bits.
func (r *Rollup) addRows(b block) {
	byCode, byLoc := r.spec.ByCode, r.spec.ByCabinet || r.spec.ByCage || r.spec.ByNode
	times, codes, nodes := b.times, b.codes[:len(b.times)], b.nodes[:len(b.times)]
	noWin := uint64(len(r.win))
	for i := 0; i < len(times); {
		if uint64(times[i]-r.lo) >= uint64(r.bs) {
			r.seek(times[i])
		}
		lo, bs, j := r.lo, uint64(r.bs), i+1
		// key is the run's bucket and code bits; base is where its code's
		// column starts in win, or noWin when the code has none.
		key, base := r.bucket, uint64(0)
		if byCode {
			code := codes[i]
			for j < len(times) && codes[j] == code && uint64(times[j]-lo) < bs {
				j++
			}
			key |= uint64(code^0x8000) << codeShift
			if col := r.column(code); col < 0 {
				base = noWin
			} else {
				base = uint64(col * r.locs)
			}
		} else {
			for j < len(times) && uint64(times[j]-lo) < bs {
				j++
			}
		}
		if byLoc {
			r.addLocs(key, base, nodes[i:j])
		} else {
			slot := r.cell(key, base) // first: a new cell moves counts
			r.counts[slot] += int64(j - i)
		}
		i = j
	}
	r.total += int64(len(times))
}

// cell is key's slot, by way of the window entry at when at is inside
// the window (past it: no entry, the slot table answers).
func (r *Rollup) cell(key, at uint64) int {
	if at >= uint64(len(r.win)) {
		return r.slot(key)
	}
	if w := r.win[at]; w>>32 == r.gen {
		return int(uint32(w)) - 1
	}
	slot := r.slot(key)
	r.win[at] = r.gen<<32 | uint64(slot+1)
	return slot
}

// addLocs counts one row for each node into the cell its location has
// under key. Consecutive rows of one node share the lookup.
func (r *Rollup) addLocs(key, base uint64, nodes []uint32) {
	locOf, win, gen, counts := r.locOf, r.win, r.gen, r.counts
	lastNode, lastSlot := uint32(0), -1
	for _, node := range nodes {
		if node != lastNode || lastSlot < 0 {
			lastNode = node
			loc, at := uint64(0), uint64(len(win))
			if int(node) < len(locOf) {
				loc = uint64(locOf[node])
				at = base + loc
			} else {
				loc = r.loc(uint64(node))
			}
			if at < uint64(len(win)) && win[at]>>32 == gen {
				lastSlot = int(uint32(win[at])) - 1 // the hit cell would find, without the call
			} else {
				lastSlot = r.cell(key|loc, at)
				counts = r.counts
			}
		}
		counts[lastSlot]++
	}
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
	for slot, key := range o.cells.keys {
		r.counts[r.slot(key)] += o.counts[slot]
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

// order is the cell keys in the order a document lists them, in scratch
// the accumulator keeps (valid until the next call): ascending, which is
// canonical (bucket, code, cabinet, cage, node) order, or for k > 0 the
// k highest counts first. The packed keys are what is ranked, so only
// the winners are ever spelled out.
func (r *Rollup) order(k int) []uint64 {
	r.scratch = r.scratch[:0]
	if k <= 0 {
		r.scratch = append(r.scratch, r.cells.keys...)
		slices.Sort(r.scratch)
		return r.scratch
	}
	r.rank = r.rank[:0]
	for slot, key := range r.cells.keys {
		r.rank = append(r.rank, stats.KeyCount{Key: key, Count: r.counts[slot]})
	}
	for _, kc := range stats.RankOffenders(r.rank, k) {
		r.scratch = append(r.scratch, kc.Key)
	}
	return r.scratch
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
func (r *Rollup) writeCells(w *jsonw.W, keys []uint64, raw bool) {
	w.Key("cells").Arr()
	in, out := ","+w.Line(1), w.Line(0)
	cab, cage, node, count := in+`"cabinet": `, in+`"cage": `, in+`"node": "`, in+`"count": `
	if raw {
		cab, node = in+`"cab": `, in+`"node": `
	}
	var headBuf [96]byte
	head, run := headBuf[:0], ^uint64(0)
	for _, key := range keys {
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
		buf = strconv.AppendInt(append(buf, count...), r.counts[r.cells.find(key)], 10)
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
