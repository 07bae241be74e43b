package bincode

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

// TestRoundTrip: every value reads back as written, and the bytes a
// Reader accepted are all of them.
func TestRoundTrip(t *testing.T) {
	at := time.Date(2014, 3, 9, 12, 30, 5, 7, time.UTC)
	var b []byte
	b = AppendUint(b, math.MaxUint64)
	b = AppendInt(b, math.MinInt64)
	b = AppendInt(b, -1)
	b = AppendBool(b, true)
	b = AppendFloat(b, 0.25)
	b = AppendString(b, "XID 48")
	b = AppendTime(b, at)
	b = AppendTime(b, time.Time{})
	r := NewReader(b)
	if v := r.Uint(); v != math.MaxUint64 {
		t.Errorf("Uint = %d", v)
	}
	if v := r.Int(); v != math.MinInt64 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Int(); v != -1 {
		t.Errorf("Int = %d", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.Float(); v != 0.25 {
		t.Errorf("Float = %v", v)
	}
	if v := r.String(); v != "XID 48" {
		t.Errorf("String = %q", v)
	}
	if v := r.Time(); v != at {
		t.Errorf("Time = %v", v)
	}
	if v := r.Time(); v != (time.Time{}) {
		t.Errorf("zero Time = %v", v)
	}
	if r.Err() != nil || len(r.Rest()) != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), len(r.Rest()))
	}
}

// TestRejectsNonCanonical: a value with a second spelling, or one the
// input cannot hold, fails the reader — and every read after it.
func TestRejectsNonCanonical(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(*Reader)
	}{
		"overlong uvarint": {[]byte{0x80, 0x00}, func(r *Reader) { r.Uint() }},
		"overlong varint":  {[]byte{0x81, 0x00}, func(r *Reader) { r.Int() }},
		"bool 2":           {[]byte{2}, func(r *Reader) { r.Bool() }},
		"count past input": {[]byte{3, 0, 0}, func(r *Reader) { r.Count(1) }},
		"short string":     {[]byte{4, 'a'}, func(r *Reader) { _ = r.String() }},
		"nanoseconds 1e9":  {AppendUint(AppendInt(nil, 0), 1e9), func(r *Reader) { r.Time() }},
		"truncated float":  {[]byte{1, 2, 3}, func(r *Reader) { r.Float() }},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, r.Err())
		}
		if r.Uint() != 0 || len(r.Rest()) != 0 {
			t.Errorf("%s: reads go on after the failure", name)
		}
	}
}

// TestSortedKeys: maps encode in key order.
func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[int]bool{3: true, -1: true, 2: false})
	if !slices.Equal(got, []int{-1, 2, 3}) {
		t.Errorf("SortedKeys = %v", got)
	}
}

// TestUvarintMatchesBinary: Uvarint agrees with encoding/binary on every
// input — the value, the length, and which inputs fail — save that it
// also refuses a varint that is not in its shortest form.
func TestUvarintMatchesBinary(t *testing.T) {
	want := func(b []byte) (uint64, int, bool) {
		v, m := binary.Uvarint(b)
		if m <= 0 || (m > 1 && b[m-1] == 0) {
			return 0, 0, false
		}
		return v, m, true
	}
	check := func(b []byte) {
		t.Helper()
		for p := 0; p <= len(b); p++ {
			wv, wm, wok := want(b[p:])
			v, next, ok := Uvarint(b, p)
			if ok != wok || (ok && (v != wv || next != p+wm)) || (!ok && next != p) {
				t.Fatalf("Uvarint(% x, %d) = %d, %d, %v; want %d, %d, %v", b, p, v, next, ok, wv, p+wm, wok)
			}
		}
	}
	var inputs [][]byte
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1 << shift, 1<<shift - 1, 1<<shift + 1} {
			enc := AppendUint(nil, v)
			inputs = append(inputs, enc, append(slices.Clone(enc), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
		}
	}
	inputs = append(inputs,
		[]byte{0x80, 0x00}, []byte{0xff, 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0}, // overlong
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // past 64 bits
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // eleven bytes
	)
	state := uint64(1)
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+i%13)
		for j := range b {
			state = state*6364136223846793005 + 1442695040888963407
			b[j] = byte(state >> 56)
			if state>>40&3 == 0 {
				b[j] &= 0x7f // end a varint now and then
			}
		}
		inputs = append(inputs, b)
	}
	for _, b := range inputs {
		check(b)
	}
	if _, next, ok := Uvarint([]byte{1}, -1); ok || next != -1 {
		t.Fatal("a negative position decoded")
	}
}
