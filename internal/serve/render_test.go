package serve

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/race"
	"titanre/internal/topology"
)

// BadRequestBodies pins the text of every 400 the query endpoints write
// from a URL parameter — the handlers read one parsed query string
// each, and what they say about a bad one must not drift. Exported (from
// a test file) so TestBadRequestBodiesForwarded, outside the package
// because it needs a titanrouter, holds a router to the same table.
var BadRequestBodies = map[string]string{
	"/rollup?by=code,rack":                `bad by dimension "rack": want code, cabinet, cage or node`,
	"/rollup?bucket=soon":                 `bad bucket "soon": time: invalid duration "soon"`,
	"/rollup?bucket=10ms":                 `store: rollup bucket 10ms must be at least 1s`,
	"/rollup?code=zzz":                    `bad code "zzz": want an XID number, sbe or otb`,
	"/top?code=zzz":                       `bad code "zzz": want an XID number, sbe or otb`,
	"/top?by=cabinet":                     `store: top-k dimension "cabinet" (want node, serial or code)`,
	"/top?k=-1":                           `bad k "-1"`,
	"/top?k=many":                         `bad k "many"`,
	"/codes/13/history?limit=-1":          `bad limit "-1"`,
	"/codes/13/history?limit=few":         `bad limit "few"`,
	"/nodes/c0-0c0s0n2/history?limit=-1":  `bad limit "-1"`,
	"/nodes/c0-0c0s0n2/history?limit=x":   `bad limit "x"`,
	"/codes/13/history?since=yesterday":   `bad since "yesterday": parsing time "yesterday" as "2006-01-02T15:04:05Z07:00": cannot parse "yesterday" as "2006"`,
	"/nodes/c0-0c0s0n2/history?until=now": `bad until "now": parsing time "now" as "2006-01-02T15:04:05Z07:00": cannot parse "now" as "2006"`,
	"/rollup?since=1":                     `bad since "1": parsing time "1" as "2006-01-02T15:04:05Z07:00": cannot parse "1" as "2006"`,
	"/top?until=2":                        `bad until "2": parsing time "2" as "2006-01-02T15:04:05Z07:00": cannot parse "2" as "2006"`,
	"/rollup?cage=9":                      `store: cage 9 out of range (machine has 3)`,
	"/rollup?cage=top":                    `titanql: bad cage "top" (want 0, 1 or 2)`,
	"/query":                              `missing q: want /query?q=<titanql expression>`,
}

// TestBadRequestBodies asks a daemon for every entry of the table.
func TestBadRequestBodies(t *testing.T) {
	s := testServer(t, DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for path, want := range BadRequestBodies {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || string(body) != want+"\n" {
			t.Errorf("GET %s: %d %q, want 400 %q", path, resp.StatusCode, body, want)
		}
	}
}

// historyFixture is a short adversarial event list: pre-epoch and
// backwards-running times, nanoseconds, a code at each int16 extreme,
// with and without serial, job and page.
func historyFixture() []console.Event {
	var events []console.Event
	for i, sec := range []int64{-3 * 86400, 5, 0, -1, 1370000000, 1370000000, 1369999000} {
		ev := console.Event{
			Time: time.Unix(sec, int64(i%2)*123456789).UTC(),
			Node: topology.NodeID(i * 1777 % topology.TotalNodes),
			Code: console.EventCode([]int{math.MinInt16, 13, math.MaxInt16, 48, -1, 0, 31}[i]),
			Page: console.NoPage,
		}
		if i%3 != 0 {
			ev.Serial, ev.Job, ev.Page = gpu.Serial(1000+i), console.JobID(i-2), int32(i*1000)
		}
		events = append(events, ev)
	}
	return events
}

// TestHistoryAppendJSONMatchesEncodingJSON: both history documents
// render byte-identically to encoding/json — full, truncated, empty.
func TestHistoryAppendJSONMatchesEncodingJSON(t *testing.T) {
	node := NodeHistory{Node: `c0-0c0s0n2`, Sealed: 4, Retained: 3, Events: []HistoryEvent{}}
	code := CodeHistory{Code: "XID 13", Sealed: 1 << 40, Retained: 0, Truncated: true, Events: []CodeHistoryEvent{}}
	check := func() {
		t.Helper()
		for _, doc := range []interface{ AppendJSON([]byte) []byte }{node, code} {
			if got, want := doc.AppendJSON(nil), renderJSON(t, doc); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON diverges from encoding/json\ngot:  %s\nwant: %s", got, want)
			}
		}
	}
	check() // empty: "events": []
	for _, ev := range historyFixture() {
		he := HistoryEvent{Time: ev.Time, Code: ev.Code.String(), Page: ev.Page, Job: int64(ev.Job)}
		ce := CodeHistoryEvent{Time: ev.Time, Node: topology.CNameOf(ev.Node), Page: ev.Page, Job: int64(ev.Job)}
		if ev.Serial != 0 {
			he.Serial, ce.Serial = ev.Serial.String(), ev.Serial.String()
		}
		node.Events, code.Events = append(node.Events, he), append(code.Events, ce)
	}
	check()
	code.Truncated, node.Truncated, code.Code, node.Node = false, true, `<"&>`, "n\xffode"
	check()
}

// TestCodeHistoryLimitAllocs: what a ?limit=10 request allocates does
// not follow how many events match — four times the matches, sealed and
// retained alike, cost the same allocations and the same bytes. Before
// the limit reached the scan, every match was materialized first.
func TestCodeHistoryLimitAllocs(t *testing.T) {
	measure := func(n int) (allocs, bytes float64) {
		events := make([]console.Event, n)
		for i := range events {
			events[i] = console.Event{
				Time:   time.Unix(1370000000+int64(i)*60, 0).UTC(),
				Node:   topology.NodeID(i % topology.TotalNodes),
				Code:   13,
				Serial: gpu.Serial(1 + i%50),
				Page:   console.NoPage,
			}
		}
		s, _, _ := queryServer(t, encodeLog(t, events))
		if sealed, err := s.compact(time.Duration(n/2)*time.Minute, 1); err != nil || sealed == 0 || sealed == n {
			t.Fatalf("compaction sealed %d of %d events: %v", sealed, n, err)
		}
		h := s.Handler()
		get := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/codes/13/history?limit=10", nil))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"sealed_events": `+strconv.Itoa(n/2)) {
				t.Fatalf("%d %.300s", rec.Code, rec.Body)
			}
		}
		// The least of many single runs: the render pool (which drops
		// buffers at random under the race detector) and the server's
		// background goroutines only ever add.
		allocs, bytes = math.Inf(1), math.Inf(1)
		var before, after runtime.MemStats
		for i := 0; i < 30; i++ {
			runtime.ReadMemStats(&before)
			get()
			runtime.ReadMemStats(&after)
			allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return allocs, bytes
	}
	a, ab := measure(2000)
	b, bb := measure(8000)
	slack := 2.0
	if race.Enabled {
		slack = 10 // its runtime moves the count by a few from server to server; a per-match allocation moves it by thousands
	}
	if math.Abs(a-b) > slack || bb > 1.25*ab {
		t.Errorf("limit=10: %v allocations and %.0f bytes with 2,000 matches, %v and %.0f with 8,000", a, ab, b, bb)
	}
}
