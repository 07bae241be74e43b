package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"titanre/internal/console"
)

// benchServerConfig is the ingest-benchmark shape: no retained event log
// (the benchmark is about throughput, not snapshots), everything else at
// production defaults.
func benchServerConfig() Config {
	cfg := DefaultConfig()
	cfg.RetainEvents = false
	return cfg
}

func shutdownBench(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// BenchmarkIngest measures the handler-level ingest path (read body,
// decode, hand off, 202) plus the applier keeping pace, bypassing TCP.
func BenchmarkIngest(b *testing.B) {
	log := encodeLog(b, simEvents())
	s := NewServer(benchServerConfig())
	defer shutdownBench(b, s)
	h := s.Handler()
	lines := console.CountLines(log)

	b.SetBytes(int64(len(log)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", bytes.NewReader(log)))
			if rec.Code == 202 {
				break
			}
			// Shed: the pipeline is saturated, which is the point — spin
			// until admitted so b.N batches all land.
			time.Sleep(time.Millisecond)
		}
	}
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(lines)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}
