package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/sim"
)

// The in-process read benchmark: the five fold shapes bench/'s
// query_sealed workload replays, served by the real handlers over the
// same shape of history — one simulated two-month period thinned evenly
// to 48,000 events, seven time-shifted copies, sealed into six mapped
// segments — with no socket, no second reader and no load generator in
// the way. At -cpu 1 its figures repeat to a few percent, which the
// 45-second end-to-end pairs on a shared host do not (ROADMAP house
// rule (a)); bench/ stays the confirmation.

// readShapes are the requests, spelled as bench/refs.go spells them.
var readShapes = []struct{ name, path string }{
	{"top_node", "/top?by=node&k=10"},
	{"rollup_code", "/rollup?by=code&bucket=24h"},
	{"plan_cabinet", "/query?" + url.Values{"q": {"* | by cabinet | bucket 7d"}}.Encode()},
	{"plan_selective", "/query?" + url.Values{"q": {"code=31 cabinet=c3-* | by cage | bucket 6h | top 5"}}.Encode()},
	{"plan_pruned", "/query?" + url.Values{"q": {"code=13 since=2013-09-10T00:00:00Z until=2013-09-17T00:00:00Z | top serial 10"}}.Encode()},
}

// readBenchHistory builds (once) the bench-shaped history: period events
// taken evenly from a two-month simulation, copies laid end to end.
var readBenchHistory = sync.OnceValue(func() []console.Event {
	const periodEvents, copies = 48000, 7
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 2, 0)
	all := sim.Run(cfg).Events
	span := cfg.End.Sub(cfg.Start)
	out := make([]console.Event, 0, periodEvents*copies)
	for k := 0; k < copies; k++ {
		for i := 0; i < periodEvents; i++ {
			ev := all[i*len(all)/periodEvents]
			ev.Time = ev.Time.Add(time.Duration(k) * span).Truncate(time.Second)
			out = append(out, ev)
		}
	}
	return out
})

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
// daemon's own fold clock and folded-row counter beside them. Run it as
//
//	go test ./internal/serve -run '^$' -bench ReadShapes -cpu 1 -count 6
func BenchmarkReadShapes(b *testing.B) {
	s := readBenchServer(b)
	h := s.Handler()
	for _, shape := range readShapes {
		b.Run(shape.name, func(b *testing.B) {
			req := httptest.NewRequest("GET", shape.path, nil)
			w := &discard{h: make(http.Header)}
			serve := func() {
				w.status, w.n = 200, 0
				h.ServeHTTP(w, req)
				if w.status != 200 || w.n == 0 {
					b.Fatalf("%s: status %d, %d body bytes", shape.path, w.status, w.n)
				}
			}
			serve() // warm: page cache, pools
			before := s.StatsNow()
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				serve()
			}
			after := s.StatsNow()
			b.ReportMetric((after.QueryFoldSeconds-before.QueryFoldSeconds)*1e9/float64(b.N), "fold-ns/op")
			b.ReportMetric(float64(after.QueryRowsFolded-before.QueryRowsFolded)/float64(b.N), "rows/op")
			b.ReportMetric(float64(w.n), "body-B")
		})
	}
}
