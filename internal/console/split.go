package console

import (
	"bytes"
	"math/bits"

	"titanre/internal/topology"
)

// Batch splitting for the cluster router.
//
// A titanrouter fronting N titand replicas must divide one newline-
// delimited /ingest body into per-replica sub-batches without
// materializing a string per line. SplitBatch walks the batch once,
// asks the owner function for each line's replica (LineNode gives it
// the node on the zero-allocation cname path), and emits one body per
// replica plus a line-index bitmask recording which original lines the
// body carries. Concatenating the sub-batches back in mask order
// reproduces the original batch byte for byte (FuzzSplitBatch), which
// is what lets the router hand every replica its lines verbatim while
// still being able to assign each line a dense global sequence number:
// the j-th line of a sub-batch is original line MaskPositions(mask)[j].

// LineNode extracts the node a canonical console line names, without
// allocating: it walks the "[ts] cname ..." header with the same
// numeric field decoder the fast-path event decoder uses. ok=false
// means the line carries no parseable cname at the canonical offset —
// such a line never decodes into an event naming a node, so its
// placement is a load-balancing choice, not a correctness one.
func LineNode(line []byte) (topology.NodeID, bool) {
	if len(line) < 23 || line[0] != '[' || line[20] != ']' || line[21] != ' ' {
		return 0, false
	}
	node, n := decodeCName(line[22:])
	if n == 0 {
		return 0, false
	}
	return node, true
}

// CountLines counts newline-delimited records the way the parser, the
// daemons' line accounting and SplitBatch all do: one per newline, plus
// a final unterminated line.
func CountLines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// SplitBatch divides one newline-delimited batch among n owners. For
// every line (each '\n'-delimited record, counted exactly like
// CountLines — including empty records), owner is called with the line
// bytes (trailing newline stripped, \r retained) and its 0-based index,
// and must return the owning replica in [0, n); out-of-range returns are
// clamped. Line bytes are copied verbatim into the owner's body, keeping
// their terminators, so the final line's missing newline (when the batch
// has one) stays missing.
//
// It returns the per-owner bodies (nil for owners with no lines), the
// per-owner line-index bitmasks over the original batch, the per-owner
// line counts, and the total line count. The masks partition
// [0, lines): every line index is set in exactly one mask.
func SplitBatch(data []byte, n int, owner func(line []byte, idx int) int) (bodies [][]byte, masks [][]uint64, counts []int, lines int) {
	if n < 1 {
		n = 1
	}
	bodies = make([][]byte, n)
	masks = make([][]uint64, n)
	counts = make([]int, n)
	if len(data) == 0 {
		return bodies, masks, counts, 0
	}
	words := (CountLines(data)+63)/64 + 1
	for idx, off := 0, 0; off < len(data); idx++ {
		// One record: up to and including the next newline, or the
		// unterminated remainder.
		end := off
		for end < len(data) && data[end] != '\n' {
			end++
		}
		seg := data[off:end] // line without terminator
		if end < len(data) {
			end++ // consume the newline into the owner's body
		}
		o := owner(seg, idx)
		if o < 0 || o >= n {
			o = ((o % n) + n) % n
		}
		if masks[o] == nil {
			masks[o] = make([]uint64, words)
		}
		bodies[o] = append(bodies[o], data[off:end]...)
		masks[o][idx/64] |= 1 << (idx % 64)
		counts[o]++
		lines = idx + 1
		off = end
	}
	return bodies, masks, counts, lines
}

// MaskBytes serializes a line-index bitmask as little-endian bytes,
// trimmed of trailing zero bytes — the wire shape of the
// X-Titan-Seq-Mask header (base64 on the wire).
func MaskBytes(mask []uint64) []byte {
	out := make([]byte, 0, len(mask)*8)
	for _, w := range mask {
		for b := 0; b < 8; b++ {
			out = append(out, byte(w>>(8*b)))
		}
	}
	for len(out) > 0 && out[len(out)-1] == 0 {
		out = out[:len(out)-1]
	}
	return out
}

// MaskFromBytes is the inverse of MaskBytes.
func MaskFromBytes(b []byte) []uint64 {
	mask := make([]uint64, (len(b)+7)/8)
	for i, by := range b {
		mask[i/8] |= uint64(by) << (8 * (i % 8))
	}
	return mask
}

// MaskPositions returns the set bit positions in ascending order: the
// original batch line index of each sub-batch line, in sub-batch order.
func MaskPositions(mask []uint64) []int32 {
	out := make([]int32, 0, MaskCount(mask))
	for wi, w := range mask {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, int32(wi*64+b))
			w &^= 1 << b
		}
	}
	return out
}

// MaskCount returns the number of set bits.
func MaskCount(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}
