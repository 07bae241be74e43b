package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestSequencedSubBatchAppliedOnce holds admission's window of applied
// sequence bases to what the router's retries need of it — the cases the
// fleet schedules only reach statistically: a replay is acknowledged and
// not applied; of copies racing in, one is applied; a copy that was shed
// is not remembered, so its retry is applied; a base older than the window
// is refused, not guessed at; and an untagged batch sees none of it. (That
// the window survives a graceful restart is TestAlertFeedRestart's, and
// TestSeqWindowRestartWithoutFeed's with the alert feed off.)
func TestSequencedSubBatchAppliedOnce(t *testing.T) {
	batches := chunkLog(encodeLog(t, simEvents()[:4*64]), 64)
	const lines = 64

	t.Run("replay", func(t *testing.T) {
		s := testServer(t, DefaultConfig())
		for i, wantDup := range []bool{false, true, true} {
			if status, dup := postTagged(t, s, "", batches[0], 1000); status != http.StatusAccepted || dup != wantDup {
				t.Fatalf("copy %d: status %d, duplicate %v; want 202, %v", i, status, dup, wantDup)
			}
		}
		quiesce(t, s)
		if st := s.StatsNow(); st.EventsApplied != lines || st.LinesAccepted != lines || st.BatchesDuplicate != 2 || st.LinesDuplicate != 2*lines {
			t.Fatalf("applied %d events of %d lines accepted, %d duplicate batches of %d lines; want %d, %d, 2, %d",
				st.EventsApplied, st.LinesAccepted, st.BatchesDuplicate, st.LinesDuplicate, lines, lines, 2*lines)
		}
	})

	t.Run("racing copies", func(t *testing.T) {
		s := testServer(t, DefaultConfig())
		const copies = 8
		var wg sync.WaitGroup
		for i, batch := range batches {
			for c := 0; c < copies; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if status, _ := postTagged(t, s, "", batch, uint64(i*lines)); status != http.StatusAccepted {
						t.Errorf("base %d: status %d", i*lines, status)
					}
				}()
			}
		}
		wg.Wait()
		quiesce(t, s)
		if st := s.StatsNow(); st.EventsApplied != uint64(len(batches)*lines) || st.BatchesDuplicate != uint64(len(batches)*(copies-1)) {
			t.Fatalf("%d copies each of %d sub-batches applied %d events and booked %d duplicates; want %d and %d",
				copies, len(batches), st.EventsApplied, st.BatchesDuplicate, len(batches)*lines, len(batches)*(copies-1))
		}
	})

	t.Run("a shed copy is not remembered", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.QueueDepth = 1
		s := testServer(t, cfg)
		gate := make(chan struct{})
		s.StallForTest(gate)
		if status, _ := postTagged(t, s, "", batches[0], 0); status != http.StatusAccepted {
			t.Fatalf("first sub-batch: status %d", status)
		}
		if status, _ := postTagged(t, s, "", batches[1], lines); status != http.StatusTooManyRequests {
			t.Fatalf("second sub-batch with the one slot taken: status %d, want 429", status)
		}
		close(gate)
		quiesce(t, s)
		if status, dup := postTagged(t, s, "", batches[1], lines); status != http.StatusAccepted || dup {
			t.Fatalf("retry of the shed sub-batch: status %d, duplicate %v; want 202 and applied", status, dup)
		}
		quiesce(t, s)
		if st := s.StatsNow(); st.EventsApplied != 2*lines || st.BatchesDuplicate != 0 {
			t.Fatalf("applied %d events, %d duplicates; want %d, 0", st.EventsApplied, st.BatchesDuplicate, 2*lines)
		}
	})

	t.Run("older than the window", func(t *testing.T) {
		s := testServer(t, DefaultConfig())
		line := batches[0][:bytes.IndexByte(batches[0], '\n')+1]
		for base := uint64(100); base < 100+seqWindow+1; base++ { // one more than it holds: base 100 is forgotten
			if status, dup := postTagged(t, s, "", line, base); status != http.StatusAccepted || dup {
				t.Fatalf("base %d: status %d, duplicate %v", base, status, dup)
			}
			if base%128 == 0 {
				quiesce(t, s)
			}
		}
		quiesce(t, s)
		for _, base := range []uint64{100, 7} { // applied and forgotten; never seen — it cannot tell which
			if status, _ := postTagged(t, s, "", line, base); status != http.StatusConflict {
				t.Fatalf("base %d, below the window: status %d, want 409", base, status)
			}
		}
		if status, dup := postTagged(t, s, "", line, 101); status != http.StatusAccepted || !dup {
			t.Fatalf("oldest base still held: status %d, duplicate %v; want 202 and a duplicate", status, dup)
		}
		quiesce(t, s)
		if st := s.StatsNow(); st.EventsApplied != seqWindow+1 || st.BatchesStaleSeq != 2 || st.BatchesDuplicate != 1 {
			t.Fatalf("applied %d events, refused %d stale, %d duplicates; want %d, 2, 1", st.EventsApplied, st.BatchesStaleSeq, st.BatchesDuplicate, seqWindow+1)
		}
	})

	t.Run("untagged", func(t *testing.T) {
		s := testServer(t, DefaultConfig())
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(batches[0])))
			if rec.Code != http.StatusAccepted || rec.Header().Get(DuplicateHeader) != "" {
				t.Fatalf("untagged copy %d: status %d, duplicate header %q", i, rec.Code, rec.Header().Get(DuplicateHeader))
			}
		}
		quiesce(t, s)
		if st := s.StatsNow(); st.EventsApplied != 2*lines || st.BatchesDuplicate != 0 || len(s.seqSeen) != 0 {
			t.Fatalf("applied %d events, %d duplicates, window of %d; an untagged batch is applied as often as it is sent", st.EventsApplied, st.BatchesDuplicate, len(s.seqSeen))
		}
	})
}

// TestSeqWindowRestartWithoutFeed is TestAlertFeedRestart's
// replay-after-restart step with Config.AlertFeed off: the window of
// applied sequence bases rides in the shutdown snapshot whether or not
// the feed does, so the router's retry of a sub-batch whose 202 the
// restart ate is still a duplicate, not applied twice.
func TestSeqWindowRestartWithoutFeed(t *testing.T) {
	batches := chunkLog(encodeLog(t, simEvents()[:4*64]), 64)
	cfg := DefaultConfig()
	cfg.AlertFeed = false
	cfg.SnapshotDir = t.TempDir()
	s := NewServer(cfg)
	for i, batch := range batches {
		if status, dup := postTagged(t, s, "", batch, uint64(1000+64*i)); status != http.StatusAccepted || dup {
			t.Fatalf("batch %d: status %d, duplicate %v", i, status, dup)
		}
	}
	quiesce(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := testServer(t, cfg)
	if _, err := s2.WarmStart(cfg.SnapshotDir); err != nil {
		t.Fatal(err)
	}
	last := len(batches) - 1
	if status, dup := postTagged(t, s2, "", batches[last], uint64(1000+64*last)); status != http.StatusAccepted || !dup {
		t.Fatalf("replay after restart: status %d, duplicate %v; want 202 and a duplicate", status, dup)
	}
	quiesce(t, s2)
	if st := s2.StatsNow(); st.EventsApplied != 4*64 || st.BatchesDuplicate != 1 {
		t.Fatalf("after the replay: %d events applied, %d duplicates; want %d, 1", st.EventsApplied, st.BatchesDuplicate, 4*64)
	}
}
