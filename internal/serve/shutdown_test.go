package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/sim"
)

// TestShutdownDrainsInFlight checks the graceful-drain contract: a batch
// admitted before SIGTERM-equivalent Shutdown is fully applied, and
// ingest attempts after the drain get a clean refusal rather than data
// loss with a 202.
func TestShutdownDrainsInFlight(t *testing.T) {
	events := simEvents()[:5000]
	log := encodeLog(t, events)

	s := NewServer(DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeListener(ln) }()
	base := "http://" + ln.Addr().String()

	// Stall the pipeline so the batch is demonstrably still in flight
	// (admitted but unparsed) when Shutdown begins.
	gate := make(chan struct{})
	s.StallForTest(gate)
	resp, err := http.Post(base+"/ingest", "text/plain", bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %s", resp.Status)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Shutdown must be blocked on the stalled pipeline, not discarding it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a batch was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Every admitted event was applied despite the drain racing the parse.
	if got := s.StatsNow().EventsApplied; got != uint64(len(events)) {
		t.Fatalf("applied %d events, want %d", got, len(events))
	}
	// A post-drain ingest through the (now connectionless) handler is a
	// 503, not a silent drop.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(log)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain ingest status = %d, want 503", rec.Code)
	}
	// Idempotent: a second Shutdown is a no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestShutdownDrainsInflightDecodes races Shutdown against 64 requests
// decoding on their own goroutines (the handler directly, no listener
// whose Shutdown would wait for them first): whichever way each race
// goes, a batch answered 202 is applied by the time Shutdown returns,
// every other one is answered 503, and nobody hands off to a closed
// channel (a panic here).
func TestShutdownDrainsInflightDecodes(t *testing.T) {
	const posts, lines = 64, 500
	log := encodeLog(t, simEvents()[:lines])
	for round := 0; round < 8; round++ {
		s := NewServer(DefaultConfig())
		var accepted, refused atomic.Uint64
		var wg sync.WaitGroup
		for i := 0; i < posts; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(log)))
				switch rec.Code {
				case http.StatusAccepted:
					accepted.Add(1)
				case http.StatusServiceUnavailable:
					refused.Add(1)
				default:
					t.Errorf("round %d: status %d", round, rec.Code)
				}
			}()
		}
		// Let the round's number of batches in before the drain starts, so
		// the race is run from both ends.
		for s.metrics.batchesAccepted.Load() < uint64(round) {
			runtime.Gosched()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		// What was answered 202 before Shutdown returned is applied now;
		// what is answered after it returned is a 503.
		st := s.StatsNow()
		wg.Wait()
		if got := accepted.Load() + refused.Load(); got != posts {
			t.Fatalf("round %d: %d of %d posts answered 202 or 503", round, got, posts)
		}
		if st.BatchesAccepted != accepted.Load() || st.EventsApplied != accepted.Load()*lines || st.QueueDepth != 0 {
			t.Fatalf("round %d: %d posts answered 202; at Shutdown's return /stats had %d batches accepted, %d events applied, queue depth %d",
				round, accepted.Load(), st.BatchesAccepted, st.EventsApplied, st.QueueDepth)
		}
	}
}

// TestShutdownSnapshotRoundTrips streams a log, drains with a snapshot
// directory configured, and checks the snapshot loads back through the
// batch dataset pipeline with exactly the streamed events.
func TestShutdownSnapshotRoundTrips(t *testing.T) {
	events := simEvents()[:8000]
	log := encodeLog(t, events)
	dir := t.TempDir()

	cfg := DefaultConfig()
	cfg.SnapshotDir = dir
	s := NewServer(cfg)
	ts := newLocalServer(t, s)
	stats, err := StreamLog(context.Background(), ts, bytes.NewReader(log), StreamOptions{Retry429: true})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if stats.LinesAccepted != uint64(len(events)) {
		t.Fatalf("accepted %d lines, want %d", stats.LinesAccepted, len(events))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	res, err := dataset.Load(dir, sim.Config{})
	if err != nil {
		t.Fatalf("loading snapshot: %v", err)
	}
	// The console line format carries second-resolution timestamps, so
	// the reference is the batch parse of the same log bytes, not the raw
	// sim events (whose sub-second fractions never hit the wire). The
	// snapshot preserves stream order — what the detectors actually
	// consumed — so the comparison is in parse order too.
	want, err := console.NewCorrelator().ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != len(want) {
		t.Fatalf("snapshot has %d events, want %d", len(res.Events), len(want))
	}
	for i := range want {
		if res.Events[i] != want[i] {
			t.Fatalf("snapshot event %d = %v, want %v", i, res.Events[i], want[i])
		}
	}
}

// TestShutdownNoGoroutineLeak verifies a full serve/stream/drain cycle
// returns the process to its goroutine baseline (manual check — the
// repo deliberately has no external leak-detector dependency).
func TestShutdownNoGoroutineLeak(t *testing.T) {
	// Settle whatever earlier tests left winding down.
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	events := simEvents()[:3000]
	log := encodeLog(t, events)
	for round := 0; round < 3; round++ {
		s := NewServer(DefaultConfig())
		ts := newLocalServer(t, s)
		if _, err := StreamLog(context.Background(), ts, bytes.NewReader(log), StreamOptions{Retry429: true}); err != nil {
			t.Fatalf("round %d: stream: %v", round, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			cancel()
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		cancel()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		// Allow slack for the runtime's own background goroutines and
		// idle HTTP keep-alive teardown.
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: baseline %d, now %d after 3 cycles\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newLocalServer starts s on a loopback listener and returns its base
// URL. The caller owns Shutdown; the listener dies with it.
func newLocalServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.ServeListener(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return fmt.Sprintf("http://%s", ln.Addr().String())
}
