package jsonw

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// doc exercises every writer method; encoding/json over the same struct
// is the oracle.
type doc struct {
	Name  string           `json:"name"`
	Note  string           `json:"note,omitempty"`
	N     int64            `json:"n"`
	U     uint64           `json:"u"`
	Skip  int64            `json:"skip,omitempty"`
	At    time.Time        `json:"at"`
	Tags  []string         `json:"tags"`
	Rows  []row            `json:"rows"`
	Named map[string]int64 `json:"named"`
	Spec  map[string]any   `json:"spec"`
	None  []row            `json:"none"`
	Void  struct{}         `json:"void"`
}

type row struct {
	At time.Time `json:"at"`
	N  int64     `json:"n"`
}

func (d doc) AppendJSON(dst []byte) []byte { return Append(dst, d) }

func (d doc) WriteJSON(w *W) {
	w.Obj()
	w.Key("name").Str(d.Name)
	w.OmitStr("note", d.Note)
	w.Key("n").Int(d.N)
	w.Key("u").Uint(d.U)
	w.OmitInt("skip", d.Skip)
	w.Key("at").Time(d.At)
	w.Key("tags").Arr()
	for _, tag := range d.Tags {
		w.Str(tag)
	}
	w.EndArr()
	w.Key("rows").Arr()
	for _, r := range d.Rows {
		w.Obj()
		w.Key("at").Time(r.At)
		w.Key("n").Int(r.N)
		w.EndObj()
	}
	w.EndArr()
	w.Key("named").Obj()
	for k, n := range d.Named { // one key at most: map order is not the subject
		w.Key(k).Int(n)
	}
	w.EndObj()
	w.Key("spec").Any(d.Spec)
	w.Key("none").Arr()
	w.EndArr()
	w.Key("void").Obj()
	w.EndObj()
	w.EndObj()
}

func encodingJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func check(t testing.TB, d doc) {
	t.Helper()
	if got, want := d.AppendJSON(nil), encodingJSON(t, d); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON diverges from encoding/json\ngot:  %s\nwant: %s", got, want)
	}
}

func build(s string, n int64, u uint64, sec, nsec int64, zoneMin int16) doc {
	const span = 300 * 366 * 86400 // ±300 years around the epoch
	at := time.Unix(sec%span, nsec%1e9).UTC()
	if zoneMin != 0 {
		at = at.In(time.FixedZone("", int(zoneMin)%(14*60)*60))
	}
	return doc{
		Name: s, Note: s, N: n, U: u, Skip: n, At: at,
		Tags:  []string{s, "plain", s},
		Rows:  []row{{at, n}, {at, -n}, {at.Add(time.Second), 0}, {at.Truncate(time.Second), 1}, {at.Truncate(time.Second), 2}},
		Named: map[string]int64{s: n},
		Spec:  map[string]any{"s": s, "n": n, "list": []int{1, 2}, "empty": []int{}},
		None:  []row{},
	}
}

// TestAppendJSONMatchesEncodingJSON pins, case by case, what the writer
// must reproduce of encoding/json.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain ASCII ~ and space", `node="c0-0c0s0n2"`, `back\slash`,
		"<script>&amp;</script>", "line\u2028sep\u2029arator", "tab\there\nnewline\r\x00\x01\x1f\b\f",
		"del\x7f", "bad utf8 \xff\xfe tail", "truncated rune \xe2\x82", "snowman ☃ and 𝄞", "'single' /slash/",
	} {
		check(t, build(s, 1, 2, 3, 0, 0))
	}
	for _, n := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 32767, -32768} {
		check(t, build("n", n, uint64(n), 0, 0, 0))
	}
	check(t, build("u", 0, math.MaxUint64, 0, 0, 0))
	for _, at := range [][2]int64{{0, 0}, {-1, 0}, {-86400 * 365 * 200, 0}, {1370000000, 0}, {1370000000, 1}, {1370000000, 999999999}, {1370000000, 500000000}, {-5, 120}} {
		check(t, build("t", 1, 1, at[0], at[1], 0))
		check(t, build("t", 1, 1, at[0], at[1], 330))
		check(t, build("t", 1, 1, at[0], at[1], -480))
	}
	// Zero-valued omitempty members vanish; empty containers stay on one line.
	d := build("", 0, 0, 0, 0, 0)
	d.Tags, d.Rows, d.Named = []string{}, []row{}, map[string]int64{}
	check(t, d)
	if out := string(d.AppendJSON(nil)); strings.Contains(out, "note") || strings.Contains(out, "skip") || !strings.Contains(out, `"tags": [],`) {
		t.Fatalf("omitempty or empty-array rendering is off:\n%s", out)
	}
}

// FuzzAppendJSONMatchesEncodingJSON: arbitrary bytes as strings and as
// object keys, the full integer ranges, times ±300 years around the
// epoch with and without nanoseconds, in UTC and in fixed zones.
func FuzzAppendJSONMatchesEncodingJSON(f *testing.F) {
	f.Add("plain", int64(1), uint64(2), int64(1370000000), int64(0), int16(0))
	f.Add(`node="c0-0c0s0n2"`, int64(-32768), uint64(math.MaxUint64), int64(-86400), int64(5), int16(60))
	f.Add("<&>\u2028\xff\x00", int64(math.MinInt64), uint64(0), int64(math.MaxInt64), int64(999999999), int16(-719))
	f.Fuzz(func(t *testing.T, s string, n int64, u uint64, sec, nsec int64, zoneMin int16) {
		check(t, build(s, n, u, sec, nsec, zoneMin))
	})
}

// blob renders itself as a JSON string of the given size.
type blob int

func (b blob) AppendJSON(dst []byte) []byte {
	return append(append(append(dst, '"'), strings.Repeat("x", int(b)-3)...), '"', '\n')
}

// TestWrite: a self-rendering value goes out whole with its length
// declared; anything else goes through encoding/json; both say JSON.
func TestWrite(t *testing.T) {
	d := build("x", 1, 2, 3, 4, 0)
	rec := httptest.NewRecorder()
	n, err := Write(rec, d)
	if want := encodingJSON(t, d); err != nil || n != len(want) || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("Write(self-rendering) = %d, %v; body %q", n, err, rec.Body)
	}
	if h := rec.Header(); h.Get("Content-Type") != "application/json" || h.Get("Content-Length") != strconv.Itoa(n) {
		t.Fatalf("headers %v, want JSON with Content-Length %d", h, n)
	}
	plain := map[string]any{"a": 1, "b": []string{"<"}}
	rec = httptest.NewRecorder()
	n, err = Write(rec, plain)
	if err != nil || n != 0 || !bytes.Equal(rec.Body.Bytes(), encodingJSON(t, plain)) {
		t.Fatalf("Write(plain) = %d, %v; body %q", n, err, rec.Body)
	}
	if h := rec.Header(); h.Get("Content-Type") != "application/json" || h.Get("Content-Length") != "" {
		t.Fatalf("headers %v, want JSON without a declared length", h)
	}
	var buf bytes.Buffer // not an HTTP response: what titanreport prints
	if _, err := Write(&buf, d); err != nil || !bytes.Equal(buf.Bytes(), encodingJSON(t, d)) {
		t.Fatalf("Write to a plain writer: %v, %q", err, buf.Bytes())
	}
}

// TestPoolDropsOversizeBuffers: after one answer past the cap and one
// ordinary one, the pool never hands back more than the cap — the giant
// buffer went to the collector, not back into the pool.
func TestPoolDropsOversizeBuffers(t *testing.T) {
	for _, size := range []blob{maxPooled + 1, 100, 2 * maxPooled, 4096} {
		if n, err := Write(io.Discard, size); err != nil || n != int(size) {
			t.Fatalf("Write(%d bytes) = %d, %v", size, n, err)
		}
		for i := 0; i < 8; i++ {
			bp := pool.Get().(*[]byte)
			if cap(*bp) > maxPooled {
				t.Fatalf("after a %d-byte answer the pool handed back a %d-byte buffer, cap is %d", size, cap(*bp), maxPooled)
			}
			defer pool.Put(bp) // hold all eight while probing, so Get reaches past the first
		}
	}
}
