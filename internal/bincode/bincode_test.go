package bincode

import (
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
