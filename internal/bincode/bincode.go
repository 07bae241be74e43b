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
	"math/bits"
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

// Reader decodes what the Append functions wrote. The first malformed
// value sets a sticky error; every later read returns a zero value, so a
// decoder checks Err once, at the end (or before trusting a count).
type Reader struct {
	b   []byte
	err error
}

// NewReader reads b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err is the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the bytes not yet read.
func (r *Reader) Rest() []byte { return r.b }

// Fail records a decode error (the first one sticks) and empties the
// input, so nothing after it is read.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

// Uint reads an unsigned varint in its shortest form.
func (r *Reader) Uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n != uvarintLen(v) {
		r.Fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a zigzag varint in its shortest form.
func (r *Reader) Int() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 || n != uvarintLen(uint64(v)<<1^uint64(v>>63)) {
		r.Fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// uvarintLen is the length of v's shortest uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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
	if n > uint64(len(r.b)/min) {
		r.Fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// Bool reads one byte, 0 or 1.
func (r *Reader) Bool() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.Fail("bad bool")
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// Float reads eight bytes of IEEE 754 bits.
func (r *Reader) Float() float64 {
	if len(r.b) < 8 {
		r.Fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Bytes reads the next n bytes (aliasing the input).
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || len(r.b) < n {
		r.Fail("truncated: want %d bytes, %d left", n, len(r.b))
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
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
