package console

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// parseCounters snapshots the operational counters for equivalence checks.
type parseCounters struct{ dropped, malformed, oversized int }

func countersOf(c *Correlator) parseCounters {
	return parseCounters{c.Dropped, c.Malformed, c.Oversized}
}

// TestParseAllParallelEquivalence: every in-memory walk — the sharded
// parse at any worker count and the indexed serial walk the router path
// uses — must return the same events in the same order, and the same
// counters, as the bounded-memory serial reader, with and without the
// fast path, over every kind of input line. The indexed walk's indices
// must name the record each event came from, counting records the way
// CountLines does (one per newline plus an unterminated last line).
func TestParseAllParallelEquivalence(t *testing.T) {
	mixed := mixedLog(t, 2000) // clean, chatter, malformed, CRLF and blank lines; wide enough to shard
	var oversized bytes.Buffer
	oversized.Write(mixed[:len(mixed)/2])
	oversized.WriteString(strings.Repeat("x", 2<<20))
	oversized.WriteByte('\n')
	oversized.Write(mixed[len(mixed)/2:])
	inputs := []struct {
		name string
		log  []byte
	}{
		{"mixed", mixed},
		{"oversized", oversized.Bytes()},
		{"no trailing newline", bytes.TrimRight(mixed, "\n")},
		{"blank lines", []byte("\n\r\n\n")},
		{"empty", nil},
	}
	for _, in := range inputs {
		serial := NewCorrelator()
		want, err := serial.ParseAll(bytes.NewReader(in.log))
		if err != nil {
			t.Fatal(err)
		}
		wantCounters := countersOf(serial)
		check := func(what string, c *Correlator, got []Event) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d events, want %d", in.name, what, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %s: event %d differs:\n got %+v\nwant %+v", in.name, what, i, got[i], want[i])
				}
			}
			if cc := countersOf(c); cc != wantCounters {
				t.Errorf("%s %s: counters %+v, want %+v", in.name, what, cc, wantCounters)
			}
		}
		records := bytes.Split(in.log, []byte{'\n'})
		if n := len(records); n > 0 && len(records[n-1]) == 0 {
			records = records[:n-1] // the split's empty tail after a final newline is not a record
		}
		for _, fast := range []bool{true, false} {
			for _, workers := range []int{1, 2, 3, 4, 7, 16} {
				c := NewCorrelator()
				c.fast = fast
				got, err := c.ParseAllParallel(bytes.NewReader(in.log), workers)
				if err != nil {
					t.Fatalf("%s fast=%t workers=%d: %v", in.name, fast, workers, err)
				}
				check(fmt.Sprintf("fast=%t workers=%d", fast, workers), c, got)
			}
			c := NewCorrelator()
			c.fast = fast
			got, idxs := c.AppendBytes(nil, nil, in.log, true, &Decoder{})
			check(fmt.Sprintf("fast=%t indexed", fast), c, got)
			if len(idxs) != len(got) {
				t.Fatalf("%s fast=%t indexed: %d indices for %d events", in.name, fast, len(idxs), len(got))
			}
			for i, idx := range idxs {
				if int(idx) >= len(records) || (i > 0 && idx <= idxs[i-1]) {
					t.Fatalf("%s fast=%t indexed: index %d of event %d out of order or past the %d records", in.name, fast, idx, i, len(records))
				}
				alone, _ := NewCorrelator().ParseBytes(records[idx], 1)
				if len(alone) != 1 || alone[0] != got[i] {
					t.Fatalf("%s fast=%t indexed: event %d is not what record %d decodes to", in.name, fast, i, idx)
				}
			}
		}
	}
}

// TestOversizedLineRegression: a 2 MiB junk line mid-file must not abort
// the parse (the old bufio.Scanner path died with ErrTooLong); it is
// counted as oversized and events on both sides of it survive. Verified
// for the serial reader and every sharded width.
func TestOversizedLineRegression(t *testing.T) {
	before := sampleEvent()
	after := sampleEvent()
	after.Serial = 9999

	var buf bytes.Buffer
	buf.WriteString(before.Raw())
	buf.WriteByte('\n')
	buf.WriteString(strings.Repeat("x", 2<<20)) // 2 MiB of junk, one line
	buf.WriteByte('\n')
	buf.WriteString(after.Raw())
	buf.WriteByte('\n')
	log := buf.Bytes()

	check := func(t *testing.T, events []Event, err error, c *Correlator) {
		t.Helper()
		if err != nil {
			t.Fatalf("parse aborted: %v", err)
		}
		if len(events) != 2 {
			t.Fatalf("got %d events, want 2 (one each side of the junk line)", len(events))
		}
		if events[0] != before || events[1] != after {
			t.Errorf("events corrupted around the oversized line: %+v", events)
		}
		if c.Oversized != 1 {
			t.Errorf("Oversized = %d, want 1", c.Oversized)
		}
		if c.Dropped != 0 || c.Malformed != 0 {
			t.Errorf("junk line leaked into other counters: dropped=%d malformed=%d", c.Dropped, c.Malformed)
		}
	}

	t.Run("serial", func(t *testing.T) {
		c := NewCorrelator()
		events, err := c.ParseAll(bytes.NewReader(log))
		check(t, events, err, c)
	})
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run("parallel", func(t *testing.T) {
			c := NewCorrelator()
			events, err := c.ParseAllParallel(bytes.NewReader(log), workers)
			check(t, events, err, c)
		})
	}
}

// TestOversizedLineAtEOF: an oversized record that runs to end-of-input
// (no closing newline) is counted, not returned and not an error.
func TestOversizedLineAtEOF(t *testing.T) {
	ev := sampleEvent()
	log := ev.Raw() + "\n" + strings.Repeat("y", maxLineBytes+100)
	c := NewCorrelator()
	events, err := c.ParseAll(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0] != ev {
		t.Fatalf("got %d events, want the single leading event", len(events))
	}
	if c.Oversized != 1 {
		t.Errorf("Oversized = %d, want 1", c.Oversized)
	}
}

// TestOversizedBoundary pins the cap: a trimmed line of exactly
// maxLineBytes passes (classified as chatter — no header), one byte more
// is counted oversized. Raw CRLF lines of maxLineBytes+1 bytes trim to
// the cap and must also pass, identically in serial and sharded walks.
func TestOversizedBoundary(t *testing.T) {
	cases := []struct {
		name          string
		line          string
		wantOversized int
		wantDropped   int
	}{
		{"at cap", strings.Repeat("a", maxLineBytes), 0, 1},
		{"cap plus one", strings.Repeat("a", maxLineBytes+1), 1, 0},
		{"cap with CR", strings.Repeat("a", maxLineBytes) + "\r", 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := tc.line + "\n"
			serial := NewCorrelator()
			if _, err := serial.ParseAll(strings.NewReader(log)); err != nil {
				t.Fatal(err)
			}
			sharded := NewCorrelator()
			if _, err := sharded.ParseAllParallel(strings.NewReader(log), 4); err != nil {
				t.Fatal(err)
			}
			for name, c := range map[string]*Correlator{"serial": serial, "sharded": sharded} {
				if c.Oversized != tc.wantOversized || c.Dropped != tc.wantDropped {
					t.Errorf("%s: oversized=%d dropped=%d, want %d/%d",
						name, c.Oversized, c.Dropped, tc.wantOversized, tc.wantDropped)
				}
			}
		})
	}
}

// TestParseBytesEmptyAndTiny: degenerate inputs at several widths.
func TestParseBytesEmptyAndTiny(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := NewCorrelator()
		events, err := c.ParseBytes(nil, workers)
		if err != nil || len(events) != 0 {
			t.Errorf("workers=%d empty: events=%d err=%v", workers, len(events), err)
		}
		c = NewCorrelator()
		events, err = c.ParseBytes([]byte("\n\n\n"), workers)
		if err != nil || len(events) != 0 || c.Dropped != 0 {
			t.Errorf("workers=%d blanks: events=%d dropped=%d err=%v", workers, len(events), c.Dropped, err)
		}
		c = NewCorrelator()
		events, err = c.ParseBytes([]byte(sampleEvent().Raw()), workers) // no trailing newline
		if err != nil || len(events) != 1 {
			t.Errorf("workers=%d no-trailing-newline: events=%d err=%v", workers, len(events), err)
		}
	}
}
