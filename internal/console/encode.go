package console

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Allocation-free console-line encoding.
//
// AppendRaw is the fast-path counterpart of Event.Raw: it renders the
// exact same bytes, but into a caller-supplied buffer using
// strconv.Append* and interned cnames instead of fmt, so a WriteLog over
// millions of events reuses one buffer instead of allocating a string
// per line. Raw, WriteLog and WriteLogStream are all built on it.

// Renders, where a test sets it, counts AppendRaw calls: the write path's
// "one rendering per line from POST to applied" is held by counting them.
var Renders *atomic.Int64

// AppendRaw appends the event's console line (without trailing newline)
// to buf and returns the extended buffer. The bytes are identical to
// what Raw returns.
func (e Event) AppendRaw(buf []byte) []byte {
	if Renders != nil {
		Renders.Add(1)
	}
	buf = append(buf, '[')
	buf = appendTimestamp(buf, e)
	buf = append(buf, ']', ' ')
	buf = append(buf, topology.CNameOf(e.Node)...)
	buf = append(buf, " kernel: NVRM: "...)
	switch e.Code {
	case xid.OffTheBus:
		buf = append(buf, otbMessage...)
	default:
		buf = append(buf, xidPrefix...)
		buf = strconv.AppendInt(buf, int64(e.Code), 10)
		buf = append(buf, ',', ' ')
		buf = append(buf, rawDescription(e)...)
	}
	buf = append(buf, " serial="...)
	buf = strconv.AppendUint(buf, uint64(uint32(e.Serial)), 10)
	buf = append(buf, " job="...)
	buf = strconv.AppendInt(buf, int64(e.Job), 10)
	if e.StructureValid {
		buf = append(buf, " unit="...)
		buf = append(buf, tokenOf(e.Structure)...)
	}
	if e.Page >= 0 {
		buf = append(buf, " page="...)
		buf = strconv.AppendInt(buf, int64(e.Page), 10)
	}
	return buf
}

// appendTimestamp renders e.Time in UTC as "2006-01-02 15:04:05" without
// going through time.Format.
func appendTimestamp(buf []byte, e Event) []byte {
	t := e.Time.UTC()
	year, month, day := t.Date()
	hour, minute, sec := t.Clock()
	buf = appendPadInt(buf, year, 4)
	buf = append(buf, '-')
	buf = appendPadInt(buf, int(month), 2)
	buf = append(buf, '-')
	buf = appendPadInt(buf, day, 2)
	buf = append(buf, ' ')
	buf = appendPadInt(buf, hour, 2)
	buf = append(buf, ':')
	buf = appendPadInt(buf, minute, 2)
	buf = append(buf, ':')
	buf = appendPadInt(buf, sec, 2)
	return buf
}

// appendPadInt appends v zero-padded to the given width. Values wider
// than width (years past 9999) fall back to their full decimal form, the
// same thing time.Format does.
func appendPadInt(buf []byte, v, width int) []byte {
	if v < 0 {
		// Negative years only; match time.Format's "-YYYY".
		buf = append(buf, '-')
		v = -v
	}
	var digits [20]byte
	n := len(digits)
	for v > 0 {
		n--
		digits[n] = byte('0' + v%10)
		v /= 10
	}
	for len(digits)-n < width {
		n--
		digits[n] = '0'
	}
	return append(buf, digits[n:]...)
}

// WriteLog renders events as raw console lines to w, one per line, in
// the order given. One line buffer is reused across all events.
func WriteLog(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var buf []byte
	for i := range events {
		buf = events[i].AppendRaw(buf[:0])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("console: writing log: %w", err)
		}
	}
	return bw.Flush()
}

// WriteLogStream renders events pulled from next — until it reports
// done — as raw console lines, one per line, in the order yielded. It
// writes the same bytes WriteLog would for the materialized sequence
// without requiring the caller to hold that sequence in memory.
func WriteLogStream(w io.Writer, next func() (Event, bool)) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var buf []byte
	for {
		ev, ok := next()
		if !ok {
			break
		}
		buf = ev.AppendRaw(buf[:0])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("console: writing log: %w", err)
		}
	}
	return bw.Flush()
}
