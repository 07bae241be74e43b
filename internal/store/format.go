package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"titanre/internal/bincode"
	"titanre/internal/durable"
	"titanre/internal/topology"
)

// On-disk segment layout, version 2, all little-endian:
//
//	magic    [8]byte  "TITANSEG"
//	version  uint32   2
//	count    uint32   number of events n
//	minT     int64    epoch seconds
//	maxT     int64
//	arenaLen uint32
//	pad      [4]byte  zero — aligns the time column to 8 bytes
//	times    [n]int64
//	codes    [n]uint16
//	pad      to a 4-byte boundary
//	nodes    [n]uint32
//	cards    [n]uint8
//	pad      to a 4-byte boundary
//	offs     [n+1]uint32
//	arena    [arenaLen]byte
//	dict     uvarint nnodes, then per node (ascending node id):
//	           uvarint node, uvarint count, count x uvarint serial
//	bitmaps  uvarint ncodes, then per code (ascending code):
//	           varint code, uvarint nwords, nwords x uint64 words
//	digest   [32]byte SHA-256 over everything above
//
// The trailing digest makes corruption detection exact: a read that
// does not end on a matching digest fails with ErrCorrupt rather than
// yielding silently wrong columns. The alignment pads exist for the
// mmap read path (mmap.go): a page-aligned mapping puts every fixed-
// width column on its natural boundary, so the in-memory column slices
// can alias the mapped file directly instead of being copied to heap.

var segMagic = [8]byte{'T', 'I', 'T', 'A', 'N', 'S', 'E', 'G'}

const segVersion = 2

// segHeaderLen is the fixed header before the alignment pad.
const segHeaderLen = 8 + 4 + 4 + 8 + 8 + 4

// ErrCorrupt reports a segment file whose digest or structure does not
// validate.
var ErrCorrupt = errors.New("store: corrupt segment file")

// pad4 returns the bytes needed to advance p to a 4-byte boundary.
func pad4(p int) int { return (4 - p&3) & 3 }

// columnLayout gives the byte offsets of every fixed-width column for a
// segment of n events with an arenaLen-byte annotation arena. tail is
// where the varint dictionary section begins.
type columnLayout struct {
	times, codes, nodes, cards, offs, arena, tail int
}

func layoutFor(n, arenaLen int) columnLayout {
	var l columnLayout
	l.times = segHeaderLen + 4 // header + pad to 8
	l.codes = l.times + n*8
	l.nodes = l.codes + n*2
	l.nodes += pad4(l.nodes)
	l.cards = l.nodes + n*4
	l.offs = l.cards + n
	l.offs += pad4(l.offs)
	l.arena = l.offs + (n+1)*4
	l.tail = l.arena + arenaLen
	return l
}

// Marshal renders the segment in the on-disk format, digest included,
// into buf's backing array when that is large enough (nil allocates);
// buf must be empty.
func (s *Segment) Marshal(buf []byte) []byte {
	n := len(s.times)
	l := layoutFor(n, len(s.arena))
	// An upper bound (5 bytes a varint), so the columns just copied are
	// never copied again for the sake of the last few bytes.
	// A node in the dictionary holds at least one serial.
	size := l.tail + 10 + 15*len(s.cardSerials) + len(s.byCode)*(10+(n+63)/64*8) + sha256.Size
	buf = slices.Grow(buf, size)
	buf = append(buf, segMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, segVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.minT))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.maxT))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.arena)))
	buf = append(buf, 0, 0, 0, 0)
	for _, v := range s.times {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range s.codes {
		buf = binary.LittleEndian.AppendUint16(buf, v)
	}
	for len(buf) < l.nodes {
		buf = append(buf, 0)
	}
	for _, v := range s.nodes {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	buf = append(buf, s.cards...)
	for len(buf) < l.offs {
		buf = append(buf, 0)
	}
	for _, v := range s.offs {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	buf = append(buf, s.arena...)

	nnodes := 0
	for node, lo := range s.cardBase[:topology.TotalNodes] {
		if s.cardBase[node+1] > lo {
			nnodes++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(nnodes))
	for node, lo := range s.cardBase[:topology.TotalNodes] {
		if dict := s.cardSerials[lo:s.cardBase[node+1]]; len(dict) > 0 {
			buf = binary.AppendUvarint(buf, uint64(node))
			buf = binary.AppendUvarint(buf, uint64(len(dict)))
			for _, serial := range dict {
				buf = binary.AppendUvarint(buf, uint64(serial))
			}
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(s.byCode)))
	for _, cb := range s.byCode {
		buf = binary.AppendVarint(buf, int64(cb.code))
		buf = binary.AppendUvarint(buf, uint64(len(cb.bits.words)))
		for _, w := range cb.bits.words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}

	digest := sha256.Sum256(buf)
	return append(buf, digest[:]...)
}

// Unmarshal parses and validates an on-disk segment into heap columns.
// Every structural invariant is checked before the data is trusted:
// digest, magic, version, monotonic arena offsets, node and card bounds.
func Unmarshal(data []byte) (*Segment, error) {
	return parseSegment(data, false)
}

// parseSegment validates data and builds a Segment. With alias=false the
// columns are copied to fresh heap slices and data may be discarded
// afterwards. With alias=true the fixed-width columns alias data
// directly — the caller guarantees data outlives the segment, is
// naturally aligned (a page-aligned mapping is), and that the host is
// little-endian (the on-disk byte order); only the varint dictionary
// and the bitmaps land on the heap.
func parseSegment(data []byte, alias bool) (*Segment, error) {
	if len(data) < segHeaderLen+4+sha256.Size {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	digest := sha256.Sum256(body)
	if [sha256.Size]byte(tail) != digest {
		return nil, fmt.Errorf("%w: digest mismatch", ErrCorrupt)
	}
	if [8]byte(body[:8]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	p := 8
	version := binary.LittleEndian.Uint32(body[p:])
	p += 4
	if version != segVersion {
		return nil, fmt.Errorf("store: unsupported segment version %d", version)
	}
	n := int(binary.LittleEndian.Uint32(body[p:]))
	p += 4
	minT := int64(binary.LittleEndian.Uint64(body[p:]))
	p += 8
	maxT := int64(binary.LittleEndian.Uint64(body[p:]))
	p += 8
	arenaLen := int(binary.LittleEndian.Uint32(body[p:]))
	if n == 0 || n > math.MaxUint32-1 || arenaLen < 0 {
		return nil, fmt.Errorf("%w: implausible header (n=%d arena=%d)", ErrCorrupt, n, arenaLen)
	}
	l := layoutFor(n, arenaLen)
	if len(body) < l.tail {
		return nil, fmt.Errorf("%w: column area truncated", ErrCorrupt)
	}
	s := &Segment{minT: minT, maxT: maxT, digest: digest}
	if alias {
		s.times = aliasInt64(body[l.times:], n)
		s.codes = aliasUint16(body[l.codes:], n)
		s.nodes = aliasUint32(body[l.nodes:], n)
		s.cards = body[l.cards : l.cards+n : l.cards+n]
		s.offs = aliasUint32(body[l.offs:], n+1)
		s.arena = body[l.arena : l.arena+arenaLen : l.arena+arenaLen]
	} else {
		s.times = make([]int64, n)
		for i := range s.times {
			s.times[i] = int64(binary.LittleEndian.Uint64(body[l.times+i*8:]))
		}
		s.codes = make([]uint16, n)
		for i := range s.codes {
			s.codes[i] = binary.LittleEndian.Uint16(body[l.codes+i*2:])
		}
		s.nodes = make([]uint32, n)
		for i := range s.nodes {
			s.nodes[i] = binary.LittleEndian.Uint32(body[l.nodes+i*4:])
		}
		s.cards = make([]uint8, n)
		copy(s.cards, body[l.cards:])
		s.offs = make([]uint32, n+1)
		for i := range s.offs {
			s.offs[i] = binary.LittleEndian.Uint32(body[l.offs+i*4:])
		}
		s.arena = make([]byte, arenaLen)
		copy(s.arena, body[l.arena:])
	}
	if s.offs[0] != 0 || int(s.offs[n]) != arenaLen {
		return nil, fmt.Errorf("%w: arena offsets do not span the arena", ErrCorrupt)
	}
	// The alignment pads hold nothing but zeros, as Marshal writes them.
	for _, pad := range [][]byte{body[segHeaderLen:l.times], body[l.codes+2*n : l.nodes], body[l.cards+n : l.offs]} {
		if len(bytes.TrimLeft(pad, "\x00")) > 0 {
			return nil, fmt.Errorf("%w: non-zero alignment padding", ErrCorrupt)
		}
	}

	// The dictionary section becomes the card table in one walk, which
	// checks it as it goes — a node out of range, named twice or out of
	// ascending order, or holding no serial or too many, is nothing the
	// writer produces — and leaves every node's serial range in cardBase
	// (the nodes it skips hold none) and the serials, which sit in the
	// file in table order, in a pooled scratch slice: their number is not
	// known until the walk ends, and cardSerials gets exactly that many.
	nnodes, p, ok := bincode.Uvarint(body, l.tail)
	if !ok {
		return nil, fmt.Errorf("%w: dictionary truncated", ErrCorrupt)
	}
	base := make([]uint32, topology.TotalNodes+1)
	scratch := serialScratch.Get().(*[]uint32)
	defer serialScratch.Put(scratch)
	serials := (*scratch)[:0]
	next := uint64(0) // the first node the walk has not reached
	for i := uint64(0); i < nnodes; i++ {
		node, q, ok := bincode.Uvarint(body, p)
		if !ok || node < next || node >= uint64(topology.TotalNodes) {
			return nil, fmt.Errorf("%w: dictionary node invalid", ErrCorrupt)
		}
		cnt, q, ok := bincode.Uvarint(body, q)
		if !ok || cnt == 0 || cnt > maxCardsPerNode {
			return nil, fmt.Errorf("%w: dictionary count invalid", ErrCorrupt)
		}
		for k := next + 1; k <= node; k++ {
			base[k] = uint32(len(serials))
		}
		for ; cnt > 0; cnt-- {
			var serial uint64
			if serial, q, ok = bincode.Uvarint(body, q); !ok || serial > math.MaxUint32 {
				return nil, fmt.Errorf("%w: dictionary serial invalid", ErrCorrupt)
			}
			serials = append(serials, uint32(serial))
		}
		base[node+1] = uint32(len(serials))
		next, p = node+1, q
	}
	for k := next + 1; k <= uint64(topology.TotalNodes); k++ {
		base[k] = uint32(len(serials))
	}
	s.cardBase, s.cardSerials = base, slices.Clone(serials)
	*scratch = serials

	// One pass over the rows checks every per-row bound: the node id, the
	// arena offsets' order and the card index against the node's serials.
	offs, cards := s.offs[:n+1], s.cards[:n]
	for i, node := range s.nodes[:n] {
		if node >= uint32(topology.TotalNodes) {
			return nil, fmt.Errorf("%w: node id %d out of range", ErrCorrupt, node)
		}
		if offs[i] > offs[i+1] {
			return nil, fmt.Errorf("%w: arena offsets not monotonic", ErrCorrupt)
		}
		if card := uint32(cards[i]); card >= base[node+1]-base[node] {
			return nil, fmt.Errorf("%w: card index %d out of dictionary range", ErrCorrupt, card)
		}
	}

	// The bitmap section is decoded, not rebuilt — rebuilding from the
	// code column costs a map assignment per event, while decoding is a
	// word copy. The decode still proves the stored bitmaps exact: every
	// set bit must land on a row carrying that code, codes must ascend
	// strictly, and the marked positions must cover the segment — so a
	// file whose bitmaps disagree with its code column is rejected even
	// though its digest matches.
	ncodes, p, ok := bincode.Uvarint(body, p)
	if !ok {
		return nil, fmt.Errorf("%w: bitmap section truncated", ErrCorrupt)
	}
	nwords := (n + 63) / 64
	if ncodes > uint64((len(body)-p)/(2+8*nwords)) {
		return nil, fmt.Errorf("%w: %d bitmaps overrun the section", ErrCorrupt, ncodes)
	}
	s.byCode = make([]codeBitmap, 0, ncodes)
	marked := 0
	prevCode := int64(math.MinInt64)
	for i := uint64(0); i < ncodes; i++ {
		zz, q, ok := bincode.Uvarint(body, p)
		code := int64(zz>>1) ^ -int64(zz&1)
		if !ok || code <= prevCode || code < math.MinInt16 || code > math.MaxInt16 {
			return nil, fmt.Errorf("%w: bitmap code invalid", ErrCorrupt)
		}
		prevCode = code
		width, q, ok := bincode.Uvarint(body, q)
		if !ok || width != uint64(nwords) {
			return nil, fmt.Errorf("%w: bitmap width invalid", ErrCorrupt)
		}
		p = q
		if p+nwords*8 > len(body) {
			return nil, fmt.Errorf("%w: bitmap words truncated", ErrCorrupt)
		}
		words := make([]uint64, nwords)
		for j := range words {
			words[j] = binary.LittleEndian.Uint64(body[p+j*8:])
		}
		p += nwords * 8
		for wi, w := range words {
			for w != 0 {
				idx := wi*64 + bits.TrailingZeros64(w)
				w &= w - 1
				if idx >= n || int16(s.codes[idx]) != int16(code) {
					return nil, fmt.Errorf("%w: bitmap for code %d marks a row of another code", ErrCorrupt, code)
				}
				marked++
			}
		}
		s.byCode = append(s.byCode, codeBitmap{code: int16(code), bits: bitmap{words: words}})
	}
	if marked != n {
		return nil, fmt.Errorf("%w: bitmaps mark %d of %d rows", ErrCorrupt, marked, n)
	}
	if p != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-p)
	}
	return s, nil
}

// serialScratch holds the dictionary walk's serials until their number
// is known.
var serialScratch = sync.Pool{New: func() any { return new([]uint32) }}

// ReadSegmentFile reads and validates one segment file into heap
// columns.
func ReadSegmentFile(fsys durable.FS, path string) (*Segment, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading segment: %w", err)
	}
	s, err := Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
