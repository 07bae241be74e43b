// Package jsonw renders documents as indented JSON by appending to a
// caller-owned buffer: byte for byte what encoding/json's Encoder writes
// with a two-space indent, without reflection, the compact intermediate
// or the re-indent pass over it. The document types stay plain structs
// and are deliberately not json.Marshalers — encoding/json over the same
// struct is the independent oracle every AppendJSON is tested against.
// One difference from it is left to the caller: there is no null, so a
// document must make its slices (a nil one renders [], as an empty one).
package jsonw

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// W is the writer: its zero value, or one seeded with a buffer to extend,
// appends one document to Buf, a value per call. Documents have a fixed
// shape a few levels deep, so depth is bounded by the indent constant.
type W struct {
	Buf   []byte
	depth int
	fresh bool // the innermost open container holds nothing yet
	keyed bool // a key was just written: its value stays on the line

	// The last time written and where its text sits in Buf: a history's
	// events, in arrival order, repeat one second in bursts.
	last            time.Time
	lastAt, lastEnd int
}

// Elem starts a value: after a key nothing, otherwise the comma (unless
// first in its container) and a new indented line. Every method that
// writes a value begins with it; a caller that renders a value into Buf
// itself (store's rollup cells) calls it first.
func (w *W) Elem() {
	if !w.keyed && w.depth > 0 {
		if !w.fresh {
			w.Buf = append(w.Buf, ',')
		}
		w.line()
	}
	w.keyed, w.fresh = false, false
}

// indent is a line break and the deepest indentation there is: 16 levels.
const indent = "\n                                "

func (w *W) line() { w.Buf = append(w.Buf, w.Line(0)...) }

// Line is the line break and indentation that starts a line of the
// innermost open container, or of one nested deeper levels inside it.
func (w *W) Line(deeper int) string { return indent[:1+2*(w.depth+deeper)] }

func (w *W) open(c byte) {
	w.Elem()
	w.Buf = append(w.Buf, c)
	w.depth++
	w.fresh = true
}

// shut closes a container; an empty one stays "{}" or "[]" on its line.
func (w *W) shut(c byte) {
	w.depth--
	if !w.fresh {
		w.line()
	}
	w.fresh = false
	w.Buf = append(w.Buf, c)
}

// Obj and Arr open an object or an array as the next value; EndObj and
// EndArr close it.
func (w *W) Obj()    { w.open('{') }
func (w *W) EndObj() { w.shut('}') }
func (w *W) Arr()    { w.open('[') }
func (w *W) EndArr() { w.shut(']') }

// Key writes an object member's name; the next value written is its.
func (w *W) Key(k string) *W {
	w.Str(k)
	w.Buf = append(w.Buf, ':', ' ')
	w.keyed = true
	return w
}

// Str writes a string. One made only of printable ASCII that
// encoding/json leaves alone (it escapes ", \, control bytes, the HTML
// trio <, >, & and, beyond ASCII, U+2028, U+2029 and invalid UTF-8) is
// copied; any other is handed to encoding/json itself.
func (w *W) Str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.Any(s)
			return
		}
	}
	w.Elem()
	w.Buf = append(append(append(w.Buf, '"'), s...), '"')
}

// Int and Uint write a number.
func (w *W) Int(n int64) {
	w.Elem()
	w.Buf = strconv.AppendInt(w.Buf, n, 10)
}

func (w *W) Uint(n uint64) {
	w.Elem()
	w.Buf = strconv.AppendUint(w.Buf, n, 10)
}

// OmitStr and OmitInt write a member tagged omitempty: nothing for the
// zero value.
func (w *W) OmitStr(k, s string) {
	if s != "" {
		w.Key(k).Str(s)
	}
}

func (w *W) OmitInt(k string, n int64) {
	if n != 0 {
		w.Key(k).Int(n)
	}
}

// Time writes t as time.Time marshals: RFC 3339, nanoseconds only when
// present. The year must be in [0, 9999], or Marshal would have failed.
func (w *W) Time(t time.Time) {
	w.Elem()
	if t == w.last && w.lastEnd > 0 {
		w.Buf = append(w.Buf, w.Buf[w.lastAt:w.lastEnd]...)
		return
	}
	w.last, w.lastAt = t, len(w.Buf)
	w.Buf = append(t.AppendFormat(append(w.Buf, '"'), time.RFC3339Nano), '"')
	w.lastEnd = len(w.Buf)
}

// Any writes a value through encoding/json, indented to sit at the
// current depth — for the parts of a document that are small and
// irregular (a spec echo, a string that needs escaping).
func (w *W) Any(v any) {
	w.Elem()
	b, err := json.MarshalIndent(v, strings.Repeat("  ", w.depth), "  ")
	if err != nil {
		panic("jsonw: " + err.Error()) // only an unencodable type, a bug
	}
	w.Buf = append(w.Buf, b...)
}

// Append renders v, which writes itself value by value, onto dst as a
// complete document, newline included.
func Append(dst []byte, v interface{ WriteJSON(*W) }) []byte {
	w := W{Buf: dst}
	v.WriteJSON(&w)
	return append(w.Buf, '\n')
}

// Appender is a document with an AppendJSON: Write renders it directly.
type Appender interface{ AppendJSON(dst []byte) []byte }

// Render buffers are pooled, but one that grew past maxPooled is left to
// the collector: a single giant answer (a by-node rollup at 1s buckets
// runs to tens of MB) must not pin its buffer for the life of the daemon.
const maxPooled = 4 << 20

var pool = sync.Pool{New: func() any { return new([]byte) }}

// Write sends v to w as one indented JSON document, the only way the
// daemons and titanreport emit JSON. An Appender renders itself into a
// pooled buffer and goes out in one Write (with Content-Length when w is
// an HTTP response) and n reports its size; anything else goes through
// encoding/json, and n is 0. An Appender with a Release method renders
// from borrowed state (a pooled accumulator): it is released once the
// bytes are in the buffer, before the send, so a slow reader pins the
// buffer and nothing else.
func Write(w io.Writer, v any) (n int, err error) {
	rw, isHTTP := w.(http.ResponseWriter)
	if isHTTP {
		rw.Header().Set("Content-Type", "application/json")
	}
	a, ok := v.(Appender)
	if !ok {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return 0, enc.Encode(v)
	}
	bp := pool.Get().(*[]byte)
	*bp = a.AppendJSON((*bp)[:0])
	if r, ok := v.(interface{ Release() }); ok {
		r.Release()
	}
	if isHTTP {
		rw.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	}
	n, err = w.Write(*bp)
	if cap(*bp) <= maxPooled {
		pool.Put(bp)
	}
	return n, err
}
