package store

import "math/bits"

// slotTable interns packed uint64 keys as dense slots numbered in
// first-seen order — the index both query accumulators keep their flat
// per-key state behind (slot i's state is row i of plain slices). It is
// open addressing with linear probing over a power-of-two index of
// slot+1 values (0 = empty) that doubles at half full; a key hashes by
// one multiply, taking the product's high bits.
type slotTable struct {
	keys  []uint64 // slot -> key
	index []int32  // probe position -> slot+1
	shift uint     // 64 - log2(len(index))
}

const (
	slotTableMin = 1 << 10
	slotHash     = 0x9E3779B97F4A7C15 // 2^64 / golden ratio, odd
)

// find returns key's slot, or -1 when the table does not hold it.
func (t *slotTable) find(key uint64) int {
	if len(t.index) == 0 {
		return -1
	}
	for i := key * slotHash >> t.shift; ; i = (i + 1) & uint64(len(t.index)-1) {
		if s := t.index[i]; s == 0 || t.keys[s-1] == key {
			return int(s) - 1
		}
	}
}

// slot returns key's slot, assigning the next one when key is new.
func (t *slotTable) slot(key uint64) (slot int, fresh bool) {
	if slot = t.find(key); slot >= 0 {
		return slot, false
	}
	t.keys = append(t.keys, key)
	if 2*len(t.keys) > len(t.index) {
		t.index = make([]int32, max(2*len(t.index), slotTableMin))
		t.shift = uint(64 - bits.TrailingZeros(uint(len(t.index))))
		for s := range t.keys[:len(t.keys)-1] {
			t.seat(s)
		}
	}
	t.seat(len(t.keys) - 1)
	return len(t.keys) - 1, true
}

// seat enters slot at the first free probe position of its key.
func (t *slotTable) seat(slot int) {
	i := t.keys[slot] * slotHash >> t.shift
	for t.index[i] != 0 {
		i = (i + 1) & uint64(len(t.index)-1)
	}
	t.index[i] = int32(slot + 1)
}

// reset empties the table and keeps its arrays, for the next fold to
// intern into (see pool.go). A table holding few keys next to its index
// (a rollup by node empties one every time bucket) clears only their
// probe positions: each is found by its exact slot, so positions
// already cleared on its probe path are passed over.
func (t *slotTable) reset() {
	if 8*len(t.keys) < len(t.index) {
		for s, key := range t.keys {
			i := key * slotHash >> t.shift
			for t.index[i] != int32(s+1) {
				i = (i + 1) & uint64(len(t.index)-1)
			}
			t.index[i] = 0
		}
	} else {
		clear(t.index)
	}
	t.keys = t.keys[:0]
}
