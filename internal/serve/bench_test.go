package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"titanre/internal/console"
)

// benchCorpus builds a large console-log byte corpus by repeating the
// shared one-month sim log. Pacing is off in the capacity run, so the
// repeated timestamps are harmless.
func benchCorpus(t testing.TB, copies int) []byte {
	log := encodeLog(t, simEvents())
	corpus := make([]byte, 0, len(log)*copies)
	for i := 0; i < copies; i++ {
		corpus = append(corpus, log...)
	}
	return corpus
}

// benchServerConfig is the ingest-benchmark shape: no retained event log
// (the benchmark is about throughput, not snapshots), everything else at
// production defaults.
func benchServerConfig() Config {
	cfg := DefaultConfig()
	cfg.RetainEvents = false
	return cfg
}

// TestIngestBenchHarness measures titand ingest capacity and the
// load-shedding behavior at 2x that capacity, writing the result as JSON
// to $BENCH_SERVE_OUT. scripts/bench.sh runs it; plain `go test` skips
// it so CI stays fast.
func TestIngestBenchHarness(t *testing.T) {
	out := os.Getenv("BENCH_SERVE_OUT")
	if out == "" {
		t.Skip("set BENCH_SERVE_OUT=path.json to run the ingest benchmark")
	}
	corpus := benchCorpus(t, 6) // ~200k lines

	// Phase 1: capacity. Lossless replay as fast as the server admits.
	capSrv := NewServer(benchServerConfig())
	capURL := newLocalServer(t, capSrv)
	capStats, err := StreamLog(context.Background(), capURL, bytes.NewReader(corpus), StreamOptions{
		BatchLines:  1024,
		Concurrency: 4,
		Retry429:    true,
	})
	if err != nil {
		t.Fatalf("capacity run: %v (%v)", err, capStats)
	}
	shutdownBench(t, capSrv)
	capacity := capStats.LinesPerSecond()
	t.Logf("capacity: %v", capStats)

	// Phase 2: overload. A loopback client cannot genuinely offer 2x what
	// a full-width server drains (the zero-alloc decode outruns local
	// HTTP), so the drain rate is pinned instead: the applier consumes
	// one token per batch from a metered gate, fixing sustainable
	// throughput at drainRate — still above the 100k lines/s floor — and
	// the client offers twice that. The shedding path under test (no
	// free slot -> 429 + exact line accounting) is the production one;
	// only the reason the slots are full is synthetic.
	const drainRate = 125_000.0 // lines/s
	const batchLines = 1024
	overCfg := benchServerConfig()
	overCfg.QueueDepth = 32
	overSrv := NewServer(overCfg)
	gate := make(chan struct{}, 1)
	stopGate := make(chan struct{})
	go func() {
		tick := time.NewTicker(time.Duration(batchLines / drainRate * float64(time.Second)))
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				select {
				case gate <- struct{}{}:
				default:
				}
			case <-stopGate:
				close(gate) // release the applier for the drain
				return
			}
		}
	}()
	overSrv.stallForTest(gate)
	overURL := newLocalServer(t, overSrv)
	overStats, err := StreamLog(context.Background(), overURL, bytes.NewReader(corpus), StreamOptions{
		BatchLines:  batchLines,
		Concurrency: 8,
		TargetRate:  2 * drainRate,
		Retry429:    false,
	})
	close(stopGate)
	if err != nil {
		t.Fatalf("overload run: %v (%v)", err, overStats)
	}
	quiesce(t, overSrv)
	st := overSrv.StatsNow()
	shutdownBench(t, overSrv)
	t.Logf("overload at 2x drain (%.0f lines/s offered): %v", 2*drainRate, overStats)

	// Phase 3: journal overhead. The same lossless replay with the
	// write-ahead journal active, once per fsync policy. always pays an
	// fsync per applied batch (the durability ceiling), interval is the
	// production default (bounded loss window, near-zero cost), off
	// leaves durability to the page cache. bench.sh gates the interval
	// policy against the same 100k lines/s capacity floor.
	journalRate := make(map[string]float64, 3)
	for _, fsync := range []string{FsyncAlways, FsyncInterval, FsyncOff} {
		dir := t.TempDir()
		jcfg := benchServerConfig()
		jcfg.CompactDir = filepath.Join(dir, "segments")
		jcfg.CompactInterval = time.Hour // idle; the journal is the subject
		jcfg.JournalDir = filepath.Join(dir, "journal")
		jcfg.JournalFsync = fsync
		jSrv := NewServer(jcfg)
		if _, err := jSrv.WarmStart(dir); err != nil {
			t.Fatalf("journal bench (%s): %v", fsync, err)
		}
		jURL := newLocalServer(t, jSrv)
		jStats, err := StreamLog(context.Background(), jURL, bytes.NewReader(corpus), StreamOptions{
			BatchLines:  1024,
			Concurrency: 4,
			Retry429:    true,
		})
		if err != nil {
			t.Fatalf("journal run (%s): %v (%v)", fsync, err, jStats)
		}
		// Journal appends happen in the applier; drain it before reading
		// the counter, or a slow fsync=always run undercounts.
		quiesce(t, jSrv)
		js := jSrv.StatsNow().Journal
		shutdownBench(t, jSrv)
		if js == nil || js.Appends != jStats.LinesAccepted {
			t.Errorf("journal (%s) recorded %+v appends, want %d", fsync, js, jStats.LinesAccepted)
		}
		journalRate[fsync] = jStats.LinesPerSecond()
		t.Logf("journal fsync=%s: %v", fsync, jStats)
	}

	if capacity < 100_000 {
		t.Errorf("ingest capacity %.0f lines/s below the 100k floor", capacity)
	}
	if overStats.Batches429 == 0 {
		t.Error("load shedding never engaged at 2x capacity")
	}
	if overStats.LinesFailed != 0 {
		t.Errorf("%d lines failed outright at 2x capacity (want clean 429 shedding)", overStats.LinesFailed)
	}
	if got := st.LinesShed; got != overStats.LinesShed {
		t.Errorf("server books %d shed lines, client saw %d", got, overStats.LinesShed)
	}

	doc := map[string]any{
		"gomaxprocs":                      runtime.GOMAXPROCS(0),
		"num_cpu":                         runtime.NumCPU(),
		"lines":                           capStats.LinesRead,
		"capacity_lines_per_sec":          capacity,
		"capacity_p99_ms":                 float64(capStats.Percentile(99).Microseconds()) / 1000,
		"overload_drain_lines_per_sec":    drainRate,
		"overload_offered_lines_per_sec":  2 * drainRate,
		"overload_accepted_lines_per_sec": overStats.LinesPerSecond(),
		"overload_shed_fraction":          overStats.ShedFraction(),
		"overload_p99_ms":                 float64(overStats.Percentile(99).Microseconds()) / 1000,
		"batches_429":                     overStats.Batches429,
		"journal_lines_per_sec_always":    journalRate[FsyncAlways],
		"journal_lines_per_sec_interval":  journalRate[FsyncInterval],
		"journal_lines_per_sec_off":       journalRate[FsyncOff],
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
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
