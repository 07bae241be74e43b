package serve

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/race"
	"titanre/internal/sim"
	"titanre/internal/topology"
)

// The in-process read benchmark: the eight request shapes bench/'s
// query_sealed workload replays, and its 13-request round, served by the
// real handlers over the same shape of history — one simulated two-month
// period thinned evenly to 48,000 events, seven time-shifted copies,
// sealed into six mapped segments — with no socket, no second reader and
// no load generator in the way. At -cpu 1 its figures repeat to a few
// percent, which the 45-second end-to-end pairs on a shared host do not
// (ROADMAP house rule (a)); bench/ stays the confirmation.

type readShape struct{ name, path string }

// readShapes are the five fold requests, spelled as bench/refs.go spells
// them; the point shapes' parameters are drawn (readRound).
var readShapes = []readShape{
	{"top_node", "/top?by=node&k=10"},
	{"rollup_code", "/rollup?by=code&bucket=24h"},
	{"plan_cabinet", "/query?" + url.Values{"q": {"* | by cabinet | bucket 7d"}}.Encode()},
	{"plan_selective", "/query?" + url.Values{"q": {"code=31 cabinet=c3-* | by cage | bucket 6h | top 5"}}.Encode()},
	{"plan_pruned", "/query?" + url.Values{"q": {"code=13 since=2013-09-10T00:00:00Z until=2013-09-17T00:00:00Z | top serial 10"}}.Encode()},
}

// readRound is one round of bench/refs.go's queryPlan: every scan shape
// once and every point shape twice — 13 requests — nodes and windows
// drawn from rng.
func readRound(rng *rand.Rand, history []console.Event) []readShape {
	start, end := history[0].Time, history[len(history)-1].Time
	pick := func() string { return topology.CNameOf(history[rng.Intn(len(history))].Node) }
	window := func(d time.Duration) (since, until string) {
		at := start.Add(time.Duration(rng.Int63n(int64(end.Sub(start) - d)))).Truncate(time.Second)
		return at.UTC().Format(time.RFC3339), at.Add(d).UTC().Format(time.RFC3339)
	}
	round := append([]readShape(nil), readShapes[:3]...)
	for i := 0; i < 2; i++ {
		since, until := window(30 * 24 * time.Hour)
		psince, puntil := window(7 * 24 * time.Hour)
		round = append(round,
			readShape{"node_state", "/nodes/" + pick()},
			readShape{"node_history", "/nodes/" + pick() + "/history?" + url.Values{"since": {since}, "until": {until}}.Encode()},
			readShape{"code_history", "/codes/43/history?limit=100"},
			readShapes[3],
			readShape{"plan_pruned", "/query?" + url.Values{"q": {"code=13 since=" + psince + " until=" + puntil + " | top serial 10"}}.Encode()},
		)
	}
	return round
}

// readBenchHistory builds (once) the bench-shaped history.
var readBenchHistory = sync.OnceValue(sim.BenchHistory)

// discard is a ResponseWriter that keeps the status and counts the body.
type discard struct {
	h      http.Header
	status int
	n      int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// readBenchServer warm-starts a server over the sealed history.
func readBenchServer(tb testing.TB) *Server {
	tb.Helper()
	events := readBenchHistory()
	dir := tb.TempDir()
	if err := dataset.WriteSegments(dir, events, 0); err != nil {
		tb.Fatal(err)
	}
	s := testServer(tb, DefaultConfig())
	ws, err := s.WarmStart(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if !ws.FromSegments || ws.Replayed != len(events) {
		tb.Fatalf("warm start replayed %+v, want %d events from segments", ws, len(events))
	}
	return s
}

// BenchmarkReadShapes serves each shape from a warm daemon: ns, bytes
// and allocations per request, fold and render included, with the
// daemon's own fold clock and its folded- and visited-row counters
// beside them; then round, four drawn rounds (52 requests) an iteration,
// in ns and allocated bytes per request — the in-process twin of
// query_sealed's cpu_us_per_unit.
// Run it as
//
//	go test ./internal/serve -run '^$' -bench ReadShapes -cpu 1 -count 6
func BenchmarkReadShapes(b *testing.B) {
	s := readBenchServer(b)
	h := s.Handler()
	serve := func(b *testing.B, w *discard, req *http.Request) {
		w.status, w.n = 200, 0
		h.ServeHTTP(w, req)
		if w.status != 200 || w.n == 0 {
			b.Fatalf("%s: status %d, %d body bytes", req.URL, w.status, w.n)
		}
	}
	shapes := append(append([]readShape(nil), readShapes...), readRound(rand.New(rand.NewSource(1)), readBenchHistory())[3:6]...)
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			req, w := httptest.NewRequest("GET", shape.path, nil), &discard{h: make(http.Header)}
			serve(b, w, req) // warm: page cache, pools
			before := s.StatsNow()
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				serve(b, w, req)
			}
			after := s.StatsNow()
			b.ReportMetric((after.QueryFoldSeconds-before.QueryFoldSeconds)*1e9/float64(b.N), "fold-ns/op")
			b.ReportMetric(float64(after.QueryRowsFolded-before.QueryRowsFolded)/float64(b.N), "rows/op")
			b.ReportMetric(float64(after.QueryRowsVisited-before.QueryRowsVisited)/float64(b.N), "visited/op")
			b.ReportMetric(float64(w.n), "body-B")
		})
	}
	b.Run("round", func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		var rounds []*http.Request
		for i := 0; i < 4; i++ {
			for _, shape := range readRound(rng, readBenchHistory()) {
				rounds = append(rounds, httptest.NewRequest("GET", shape.path, nil))
			}
		}
		w := &discard{h: make(http.Header)}
		for _, req := range rounds {
			serve(b, w, req)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for b.Loop() {
			for _, req := range rounds {
				serve(b, w, req)
			}
		}
		runtime.ReadMemStats(&after)
		reqs := float64(b.N * len(rounds))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/reqs, "B/req")
	})
}

// TestPlanCabinetAllocs: a warm `* | by cabinet | bucket 7d` request —
// ~10,000 cells, a 936 KB answer — allocates a few kilobytes, and no more
// times than the same plan over six times fewer cells: nothing is made
// per cell between the accumulator and the response buffer. (Through the
// cell structs it was 887 KB a request.)
func TestPlanCabinetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime's own bookkeeping moves allocation figures")
	}
	h := readBenchServer(t).Handler()
	measure := func(bucket string) (allocs, bytes float64, body int) {
		req := httptest.NewRequest("GET", "/query?"+url.Values{"q": {"* | by cabinet | bucket " + bucket}}.Encode(), nil)
		w := &discard{h: make(http.Header)}
		allocs, bytes = math.Inf(1), math.Inf(1)
		var before, after runtime.MemStats
		for i := 0; i < 10; i++ { // the least of several: the pools and the daemon's own goroutines only add
			w.status, w.n = 200, 0
			runtime.ReadMemStats(&before)
			h.ServeHTTP(w, req)
			runtime.ReadMemStats(&after)
			allocs, bytes = min(allocs, float64(after.Mallocs-before.Mallocs)), min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		if w.status != 200 {
			t.Fatalf("bucket %s: status %d", bucket, w.status)
		}
		return allocs, bytes, w.n
	}
	a, ab, an := measure("7d")
	b, _, bn := measure("56d")
	if an < 4*bn {
		t.Fatalf("fixture: %d and %d body bytes, want about 6x", an, bn)
	}
	if ab >= 16<<10 || math.Abs(a-b) > 2 {
		t.Errorf("plan_cabinet: %v allocations and %.0f B for a %d-byte answer, %v allocations for a %d-byte one; want < 16 KB and the same count", a, ab, an, b, bn)
	}
}
