package router

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"
	"time"

	"titanre/internal/dataset"
	"titanre/internal/serve"
	"titanre/internal/sim"
)

// benchFleet is a router over three replicas on the in-memory wire,
// holding the bench-shaped history (sim.BenchHistory, what serve's
// BenchmarkReadShapes serves from one daemon): streamed through the
// router, so every replica has its share under the router's own sequence
// numbers and a whole alert feed, then sealed but for the last hour.
func benchFleet(tb testing.TB) *fleet {
	tb.Helper()
	cfgs := make([]serve.Config, 3)
	for i := range cfgs {
		cfgs[i] = serve.DefaultConfig()
		cfgs[i].CompactDir = filepath.Join(tb.TempDir(), dataset.SegmentsDir)
		cfgs[i].CompactInterval, cfgs[i].CompactAge, cfgs[i].CompactMin = time.Hour, time.Hour, 1 // idle: sealed once, below
	}
	f := newFleet(tb, cfgs...)
	events := sim.BenchHistory()
	if books := f.stream(encodeLog(tb, events), "bench"); books.accepted != uint64(len(events)) {
		tb.Fatalf("the fleet accepted %d of %d lines", books.accepted, len(events))
	}
	for _, m := range f.members {
		if sealed, err := m.srv.CompactNow(); err != nil || sealed == 0 {
			tb.Fatalf("replica %d sealed %d events: %v", m.idx, sealed, err)
		}
	}
	return f
}

// BenchmarkMergedReads is ROADMAP item 4's instrument: the router's
// merged reads over three replicas in one process — fan-out, the
// replicas' folds and partial renders, decode, merge, render — in ns,
// allocations and partial-B/op, the bytes the replicas shipped a read,
// counted on the wire: the exact figure that leads. Run it as
//
//	go test ./internal/router -run '^$' -bench MergedReads -cpu 1 -count 6
func BenchmarkMergedReads(b *testing.B) {
	f := benchFleet(b)
	h := f.rt.Handler()
	for _, shape := range []struct{ name, path string }{
		{"top_node", "/top?by=node&k=10"},
		{"rollup_code", "/rollup?by=code&bucket=24h"},
		{"plan_cabinet", "/query?" + url.Values{"q": {"* | by cabinet | bucket 7d"}}.Encode()},
		{"alerts", "/alerts"},
	} {
		b.Run(shape.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, shape.path, nil)
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
					b.Fatalf("GET %s: status %d, %d body bytes", shape.path, rec.Code, rec.Body.Len())
				}
			}
			serve() // warm: page cache, pools
			shipped := f.shipped.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				serve()
			}
			b.ReportMetric(float64(f.shipped.Load()-shipped)/float64(b.N), "partial-B/op")
		})
	}
}
