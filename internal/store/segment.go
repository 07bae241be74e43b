// Package store is the append-only columnar event store: sealed,
// immutable segments hold critical events as struct-of-arrays columns
// (epoch seconds, XID code, interned node id, card index, annotation
// arena) instead of []console.Event, cutting the per-event footprint
// from a pointer-heavy 64-byte struct plus time.Time internals to
// ~16 bytes of flat columns. Each segment carries its min/max time and
// per-code bitmaps so scans prune whole segments and allocate exact
// result sizes up front. Segments round-trip byte-identically through
// console.AppendRaw: sealing truncates nothing the console line format
// keeps (timestamps are second-resolution already), so a store built
// from a parsed log re-renders the identical log.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// noCard marks an event whose node accumulated no serial dictionary
// entry; it never appears in sealed segments (every event carries a
// serial, even serial 0) but keeps the zero value distinguishable.
const noCard = 0xFF

// maxCardsPerNode bounds the per-node serial dictionary: card indexes
// are one byte and 0xFF is reserved.
const maxCardsPerNode = 255

// Arena flag bits, first byte of every annotation record.
const (
	flagStruct = 1 << 0 // StructureValid: a structure byte follows the job varint
	flagPage   = 1 << 1 // Page >= 0: a page uvarint follows the structure byte
)

// Builder accumulates events in columnar form and seals them into an
// immutable Segment. Events may arrive in any order; Seal preserves the
// append order (callers wanting canonical order sort before appending).
type Builder struct {
	times []int64
	codes []uint16 // int16 two's complement: codes span -2 (OffTheBus) .. 99
	nodes []uint32
	cards []uint8
	offs  []uint32 // n+1 entries; offs[i]..offs[i+1] is event i's arena record
	arena []byte

	// The per-node card dictionaries, nodes (seen) and serials (dicts,
	// parallel to it) both in first-seen order, so the same event sequence
	// always seals to the same bytes. slot[node] is 1 + the node's place
	// in seen (0: no event yet), a dense table: interning a row's serial
	// is an index and a look along a dictionary that is almost always one
	// entry long. That entry is a cell of firsts; a node's second serial
	// moves its dictionary to an array of its own.
	slot   []uint32
	seen   []uint32
	dicts  [][]uint32
	firsts []uint32

	out []byte // the marshalled segment, kept for a recycled builder's next

	// The sealed segment's card table (see Segment), kept with the columns.
	cardBase, cardSerials []uint32

	minT, maxT int64
}

// NewBuilder returns a Builder pre-sized for capacity events.
func NewBuilder(capacity int) *Builder {
	return &Builder{
		times: make([]int64, 0, capacity),
		codes: make([]uint16, 0, capacity),
		nodes: make([]uint32, 0, capacity),
		cards: make([]uint8, 0, capacity),
		offs:  make([]uint32, 1, capacity+1),
		arena: make([]byte, 0, capacity*3),
		slot:  make([]uint32, topology.TotalNodes),
		minT:  math.MaxInt64,
		maxT:  math.MinInt64,

		cardBase: make([]uint32, topology.TotalNodes+1),
	}
}

// reset empties the builder and keeps its arrays. Only for a builder
// whose sealed segment nobody holds any more: the segment's columns and
// card table are these arrays.
func (b *Builder) reset() {
	for _, node := range b.seen {
		b.slot[node] = 0
	}
	b.times, b.codes, b.nodes, b.cards = b.times[:0], b.codes[:0], b.nodes[:0], b.cards[:0]
	b.offs, b.arena = b.offs[:1], b.arena[:0]
	b.seen, b.dicts, b.firsts = b.seen[:0], b.dicts[:0], b.firsts[:0]
	b.minT, b.maxT = math.MaxInt64, math.MinInt64
}

// Len reports the number of appended events.
func (b *Builder) Len() int { return len(b.times) }

// Append adds one event to the builder.
func (b *Builder) Append(e console.Event) error {
	if e.Code < math.MinInt16 || e.Code > math.MaxInt16 {
		return fmt.Errorf("store: code %d out of int16 range", e.Code)
	}
	if e.Node < 0 || int(e.Node) >= topology.TotalNodes {
		return fmt.Errorf("store: node %d out of range", e.Node)
	}
	node := uint32(e.Node)
	card, err := b.cardOf(node, uint32(e.Serial))
	if err != nil {
		return err
	}
	sec := e.Time.Unix()
	if sec < b.minT {
		b.minT = sec
	}
	if sec > b.maxT {
		b.maxT = sec
	}
	b.times = append(b.times, sec)
	b.codes = append(b.codes, uint16(int16(e.Code)))
	b.nodes = append(b.nodes, node)
	b.cards = append(b.cards, card)

	var flags byte
	if e.StructureValid {
		flags |= flagStruct
	}
	if e.Page >= 0 {
		flags |= flagPage
	}
	b.arena = append(b.arena, flags)
	b.arena = binary.AppendVarint(b.arena, int64(e.Job))
	if e.StructureValid {
		b.arena = append(b.arena, byte(e.Structure))
	}
	if e.Page >= 0 {
		b.arena = binary.AppendUvarint(b.arena, uint64(e.Page))
	}
	if len(b.arena) > math.MaxUint32 {
		return fmt.Errorf("store: annotation arena exceeds 4 GiB")
	}
	b.offs = append(b.offs, uint32(len(b.arena)))
	return nil
}

// cardOf interns serial into node's dictionary and returns its card index.
func (b *Builder) cardOf(node, serial uint32) (uint8, error) {
	i := b.slot[node]
	if i == 0 {
		b.firsts = append(b.firsts, serial)
		k := len(b.firsts)
		b.seen, b.dicts = append(b.seen, node), append(b.dicts, b.firsts[k-1:k:k])
		b.slot[node] = uint32(len(b.seen))
		return 0, nil
	}
	dict := b.dicts[i-1]
	for c, s := range dict {
		if s == serial {
			return uint8(c), nil
		}
	}
	if len(dict) >= maxCardsPerNode {
		return noCard, fmt.Errorf("store: node %d has more than %d distinct serials in one segment", node, maxCardsPerNode)
	}
	b.dicts[i-1] = append(dict, serial)
	return uint8(len(dict)), nil
}

// Seal freezes the builder into an immutable Segment, computing the
// per-code bitmaps over the code column. The segment's columns are the
// builder's: it must not be appended to afterwards.
func (b *Builder) Seal() (*Segment, error) {
	if len(b.times) == 0 {
		return nil, fmt.Errorf("store: sealing empty segment")
	}
	b.cardSerials = b.cardSerials[:0]
	for node, i := range b.slot {
		b.cardBase[node] = uint32(len(b.cardSerials))
		if i != 0 {
			b.cardSerials = append(b.cardSerials, b.dicts[i-1]...)
		}
	}
	b.cardBase[topology.TotalNodes] = uint32(len(b.cardSerials))
	s := &Segment{
		times:       b.times,
		codes:       b.codes,
		nodes:       b.nodes,
		cards:       b.cards,
		offs:        b.offs,
		arena:       b.arena,
		cardBase:    b.cardBase,
		cardSerials: b.cardSerials,
		minT:        b.minT,
		maxT:        b.maxT,
	}
	s.buildBitmaps()
	return s, nil
}

// codeBitmap pairs one XID code with the positions it occupies.
type codeBitmap struct {
	code int16
	bits bitmap
}

// Segment is one immutable struct-of-arrays block of events.
type Segment struct {
	times []int64
	codes []uint16
	nodes []uint32
	cards []uint8
	offs  []uint32
	arena []byte

	// The card table: node's serials, in the order its rows first named
	// them, are cardSerials[cardBase[node]:cardBase[node+1]], and a row's
	// serial (serialAt) is cardSerials[cardBase[node]+card] — two indexed
	// loads, where a map of per-node dictionaries cost a hash and a pointer
	// chase a row.
	// cardBase has topology.TotalNodes+1 entries (prefix sums).
	cardBase, cardSerials []uint32

	minT, maxT int64
	byCode     []codeBitmap // sorted ascending by code

	// The node index (nodeindex.go), built on the first per-node read.
	idxOnce  sync.Once
	idx      nodeIndex
	idxBytes atomic.Int64

	// Whether the time column never decreases, learned on the first
	// fold that reaches the segment's rows (timeSorted).
	sortedOnce sync.Once
	sorted     bool

	// digest is the file trailer's SHA-256 for a segment read from disk
	// (zero for one built in memory).
	digest [sha256.Size]byte

	// For a segment whose columns alias a read-only mapping
	// (MapSegmentFile): the unmap closer and the mapping size. Nil/zero
	// for heap-backed segments.
	unmap       func()
	mappedBytes int64
}

// serialAt is row i's serial. Open checked every card index against its
// node's count, and a Builder only hands out indexes it interned.
func (s *Segment) serialAt(i int) uint32 {
	return s.cardSerials[s.cardBase[s.nodes[i]]+uint32(s.cards[i])]
}

// timeSorted reports whether the segment's times never decrease, which
// lets a rollup find a bucket's rows by binary search. Like the node
// index it is derived from the columns on first use, held on the heap
// and never written: open, restart and the file format know nothing of
// it.
func (s *Segment) timeSorted() bool {
	s.sortedOnce.Do(func() {
		s.sorted = slices.IsSorted(s.times)
	})
	return s.sorted
}

// Mapped reports whether the segment's columns alias a file mapping.
func (s *Segment) Mapped() bool { return s.unmap != nil }

// MappedBytes reports the size of the backing mapping (0 if heap-backed).
func (s *Segment) MappedBytes() int64 { return s.mappedBytes }

// Close releases the file mapping, if any. The segment must not be
// used afterwards: its columns alias the unmapped region. Heap-backed
// segments ignore Close.
func (s *Segment) Close() {
	if s.unmap != nil {
		s.unmap()
		s.unmap = nil
	}
}

// buildBitmaps computes the per-code position bitmaps through a table
// over the span of codes present: at most 64 Ki entries (codes are
// int16), about a hundred on real input.
func (s *Segment) buildBitmaps() {
	lo, hi := math.MaxInt16, math.MinInt16
	for _, c := range s.codes {
		lo, hi = min(lo, int(int16(c))), max(hi, int(int16(c)))
	}
	index := make([]int32, hi-lo+1) // code-lo -> 1 + its place in byCode
	for _, c := range s.codes {
		index[int(int16(c))-lo] = 1
	}
	for i, present := range index {
		if present != 0 {
			s.byCode = append(s.byCode, codeBitmap{code: int16(lo + i), bits: newBitmap(len(s.codes))})
			index[i] = int32(len(s.byCode))
		}
	}
	for i, c := range s.codes {
		s.byCode[index[int(int16(c))-lo]-1].bits.set(i)
	}
}

// Len reports the number of events in the segment.
func (s *Segment) Len() int { return len(s.times) }

// Codes returns the distinct event codes present, ascending.
func (s *Segment) Codes() []xid.Code {
	out := make([]xid.Code, len(s.byCode))
	for i, cb := range s.byCode {
		out[i] = xid.Code(cb.code)
	}
	return out
}

// CountCode reports how many events carry code, by bitmap popcount.
func (s *Segment) CountCode(code xid.Code) int {
	if cb := s.findCode(code); cb != nil {
		return cb.bits.count()
	}
	return 0
}

// findCode returns code's position bitmap, nil when no row carries it.
// Stored codes are int16 (Builder.Append rejects anything wider), so a
// code outside that range is absent — truncating it would alias a real
// XID (65549 -> 13).
func (s *Segment) findCode(code xid.Code) *codeBitmap {
	if code < math.MinInt16 || code > math.MaxInt16 {
		return nil
	}
	c := int16(code)
	lo, hi := 0, len(s.byCode)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.byCode[mid].code < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.byCode) && s.byCode[lo].code == c {
		return &s.byCode[lo]
	}
	return nil
}

// EventAt reconstructs event i. The result compares equal (==) to the
// event that was appended, modulo sub-second truncation that the
// console line format performs anyway.
func (s *Segment) EventAt(i int) console.Event {
	e := console.Event{
		Time: time.Unix(s.times[i], 0).UTC(),
		Node: topology.NodeID(s.nodes[i]),
		Code: xid.Code(int16(s.codes[i])),
		Page: console.NoPage,
	}
	if k := s.cardBase[s.nodes[i]] + uint32(s.cards[i]); k < s.cardBase[s.nodes[i]+1] {
		e.Serial = gpu.Serial(s.cardSerials[k])
	}
	rec := s.arena[s.offs[i]:s.offs[i+1]]
	flags := rec[0]
	job, n := binary.Varint(rec[1:])
	e.Job = console.JobID(job)
	p := 1 + n
	if flags&flagStruct != 0 {
		e.Structure = gpu.Structure(rec[p])
		e.StructureValid = true
		p++
	}
	if flags&flagPage != 0 {
		page, _ := binary.Uvarint(rec[p:])
		e.Page = int32(page)
	}
	return e
}

// AppendEvents appends every event in append order to dst.
func (s *Segment) AppendEvents(dst []console.Event) []console.Event {
	if cap(dst)-len(dst) < len(s.times) {
		grown := make([]console.Event, len(dst), len(dst)+len(s.times))
		copy(grown, dst)
		dst = grown
	}
	for i := range s.times {
		dst = append(dst, s.EventAt(i))
	}
	return dst
}

// MemBytes estimates the resident heap footprint of the segment. For a
// mapped segment the columns and arena alias the page cache, not the
// heap, so only the card table and bitmaps count.
func (s *Segment) MemBytes() int64 {
	var n int64
	if s.unmap == nil {
		n = int64(len(s.times))*8 + int64(len(s.codes))*2 + int64(len(s.nodes))*4 +
			int64(len(s.cards)) + int64(len(s.offs))*4 + int64(len(s.arena))
	}
	n += int64(len(s.cardBase)+len(s.cardSerials)) * 4
	for _, cb := range s.byCode {
		n += 2 + int64(len(cb.bits.words))*8
	}
	return n
}
