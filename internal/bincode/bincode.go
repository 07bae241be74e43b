// Package bincode is the small canonical binary codec titand's restart
// checkpoint is written in: unsigned and zigzag varints, length-prefixed
// strings, little-endian float bits and times as (seconds, nanoseconds).
// Every value has exactly one encoding, and Reader refuses any other —
// an overlong varint, a bool that is not 0 or 1, a count larger than
// the bytes left could hold — so bytes a Reader accepts re-encode to
// themselves, and no input can make it panic or allocate past its own
// length.
package bincode

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// ErrCorrupt is wrapped by every error a Reader reports.
var ErrCorrupt = errors.New("bincode: corrupt")

// AppendUint appends v as an unsigned varint.
func AppendUint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendInt appends v as a zigzag varint.
func AppendInt(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat appends f's IEEE 754 bits, little-endian.
func AppendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendString appends s, length first.
func AppendString(dst []byte, s string) []byte {
	return append(AppendUint(dst, uint64(len(s))), s...)
}

// AppendTime appends t's instant as Unix seconds and nanoseconds; the
// location is not kept (Reader.Time returns UTC).
func AppendTime(dst []byte, t time.Time) []byte {
	return AppendUint(AppendInt(dst, t.Unix()), uint64(t.Nanosecond()))
}

// SortedKeys returns m's keys in ascending order: how a map is encoded,
// so equal maps encode to equal bytes.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// ReadMap reads a map encoded as its length, then each key, in
// SortedKeys order, with its value, into a map made for that many; val
// reads a value (a set's reads nothing and returns true). Keys out of
// order fail the reader.
func ReadMap[K cmp.Ordered, V any](r *Reader, key func(*Reader) K, val func(*Reader) V) map[K]V {
	n := r.Count(1)
	m := make(map[K]V, n)
	var prev K
	for i := 0; i < n && r.Err() == nil; i++ {
		k := key(r)
		if i > 0 && k <= prev {
			r.Fail("keys out of order")
			break
		}
		m[k] = val(r)
		prev = k
	}
	return m
}

// Reader decodes what the Append functions wrote. The first malformed
// value sets a sticky error; every later read returns a zero value, so a
// decoder checks Err once, at the end (or before trusting a count).
type Reader struct {
	b   []byte
	p   int // b[p:] is not yet read
	err error
}

// NewReader reads b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err is the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the bytes not yet read.
func (r *Reader) Rest() []byte { return r.b[r.p:] }

// Fail records a decode error (the first one sticks) and empties the
// input, so nothing after it is read.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	r.b, r.p = nil, 0
}

// Uint reads an unsigned varint in its shortest form. A one-byte value
// is read without a call to Uvarint.
func (r *Reader) Uint() uint64 {
	if p := r.p; p < len(r.b) && r.b[p] < 0x80 {
		r.p = p + 1
		return uint64(r.b[p])
	}
	v, next, ok := Uvarint(r.b, r.p)
	if !ok {
		r.Fail("bad uvarint")
		return 0
	}
	r.p = next
	return v
}

// Uvarint decodes the unsigned varint at b[p:] and returns it with the
// position after it. ok is false unless the varint is complete, fits 64
// bits and is in its shortest form — its last byte is not zero, a lone
// 0 aside — which is every form the Append functions write and no other.
//
// Values up to 2^21 (three bytes: counts, codes, node ids, serials, time
// offsets) are decoded without a loop; a loop's exit branch is the one a
// run of varints of mixed lengths mispredicts.
func Uvarint(b []byte, p int) (v uint64, next int, ok bool) {
	if p < 0 || p >= len(b) {
		return 0, p, false
	}
	if c := b[p]; c < 0x80 {
		return uint64(c), p + 1, true
	}
	if p+2 < len(b) {
		c0, c1, c2 := b[p], b[p+1], b[p+2]
		if c1 < 0x80 {
			if c1 == 0 {
				return 0, p, false
			}
			return uint64(c0&0x7f) | uint64(c1)<<7, p + 2, true
		}
		if c2 < 0x80 {
			if c2 == 0 {
				return 0, p, false
			}
			return uint64(c0&0x7f) | uint64(c1&0x7f)<<7 | uint64(c2)<<14, p + 3, true
		}
	}
	v, m := binary.Uvarint(b[p:])
	if m <= 0 || b[p+m-1] == 0 {
		return 0, p, false
	}
	return v, p + m, true
}

// Int reads a zigzag varint in its shortest form (that of its unsigned
// varint).
func (r *Reader) Int() int64 {
	u := r.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Uint32 reads an unsigned varint that must fit in 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uint()
	if v > math.MaxUint32 {
		r.Fail("%d overflows 32 bits", v)
		return 0
	}
	return uint32(v)
}

// Count reads a length or element count. Each counted element takes at
// least min bytes (min ≥ 1), so a count the remaining input cannot hold
// fails here, before anything is allocated for it.
func (r *Reader) Count(min int) int {
	n := r.Uint()
	if left := len(r.b) - r.p; n > uint64(left/min) {
		r.Fail("count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

// Bool reads one byte, 0 or 1.
func (r *Reader) Bool() bool {
	if r.p >= len(r.b) || r.b[r.p] > 1 {
		r.Fail("bad bool")
		return false
	}
	r.p++
	return r.b[r.p-1] == 1
}

// Float reads eight bytes of IEEE 754 bits.
func (r *Reader) Float() float64 {
	if len(r.b)-r.p < 8 {
		r.Fail("truncated float")
		return 0
	}
	r.p += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.p-8:]))
}

// Bytes reads the next n bytes (aliasing the input).
func (r *Reader) Bytes(n int) []byte {
	if left := len(r.b) - r.p; n < 0 || left < n {
		r.Fail("truncated: want %d bytes, %d left", n, left)
		return nil
	}
	r.p += n
	return r.b[r.p-n : r.p : r.p]
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes(r.Count(1))) }

// Time reads a time AppendTime wrote, in UTC.
func (r *Reader) Time() time.Time {
	sec := r.Int()
	nsec := r.Uint()
	if nsec >= 1e9 {
		r.Fail("bad nanoseconds %d", nsec)
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}
