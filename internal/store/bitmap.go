package store

import "math/bits"

// bitmap is a fixed-width bitset over event positions within one segment.
// Per-code bitmaps let a column scan touch only the rows of one XID
// without re-reading the code column, and their popcount gives exact
// result sizes so scans allocate once.
type bitmap struct {
	words []uint64
}

func newBitmap(n int) bitmap { return bitmapIn(nil, n, false) }

// bitmapIn is a bitmap of n positions, every bit clear or (full) every
// bit set, built in buf's backing array when that is large enough — a
// fold hands its matcher pooled words — and in a fresh one otherwise.
// Trailing bits past n stay clear so count and forEach see exactly n.
func bitmapIn(buf []uint64, n int, full bool) bitmap {
	need := (n + 63) / 64
	if cap(buf) < need {
		buf = make([]uint64, need)
	}
	words := buf[:need]
	if !full {
		clear(words)
		return bitmap{words: words}
	}
	for i := range words {
		words[i] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		words[need-1] = (1 << rem) - 1
	}
	return bitmap{words: words}
}

// clone returns an independent copy.
func (b bitmap) clone() bitmap {
	words := make([]uint64, len(b.words))
	copy(words, b.words)
	return bitmap{words: words}
}

func (b bitmap) set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

func (b bitmap) get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// count returns the number of set bits.
func (b bitmap) count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// keep clears every set bit whose position fails ok: an intersection
// with a computed predicate that visits only the positions still marked.
func (b bitmap) keep(ok func(i int) bool) {
	for wi, w := range b.words {
		for x := w; x != 0; x &= x - 1 {
			if tz := bits.TrailingZeros64(x); !ok(wi<<6 + tz) {
				w &^= 1 << uint(tz)
			}
		}
		b.words[wi] = w
	}
}

// or unions other into b, word-wise.
func (b bitmap) or(other bitmap) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// andAny keeps the bits of b that are set in any of sets, word-wise.
func (b bitmap) andAny(sets []bitmap) {
	for i, w := range b.words {
		if w == 0 {
			continue
		}
		var union uint64
		for _, set := range sets {
			union |= set.words[i]
		}
		b.words[i] = w & union
	}
}

// andNot clears every bit of b that is set in other, word-wise.
func (b bitmap) andNot(other bitmap) {
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// any reports whether at least one bit is set.
func (b bitmap) any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// forEach visits set bits in ascending order until fn returns false.
func (b bitmap) forEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}
