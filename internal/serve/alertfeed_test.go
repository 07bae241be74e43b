package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"titanre/internal/alert"
	"titanre/internal/console"
)

// TestFeedSupersetReplay is the collector's core theorem on real data:
// recording every simulated event with its stream sequence and
// replaying only the collected evidence through a fresh engine yields
// the exact alert stream the full engine produced — and the evidence is
// a strict subset of the stream.
func TestFeedSupersetReplay(t *testing.T) {
	events := simEvents()
	cfg := alert.DefaultConfig()

	full := alert.NewEngine(cfg)
	full.Run(events)
	var want []string
	for _, a := range full.Alerts() {
		want = append(want, a.String())
	}
	if len(want) == 0 {
		t.Fatal("simulation raised no alerts; the equivalence check needs some")
	}

	feed := newAlertFeed(cfg)
	for i, ev := range events {
		feed.record(ev, uint64(i))
	}
	feed.mu.Lock()
	records := feed.records()
	feed.mu.Unlock()
	if len(records) == 0 || len(records) >= len(events) {
		t.Fatalf("collected %d evidence records over %d events; want a non-empty strict subset", len(records), len(events))
	}
	t.Logf("evidence: %d records over %d events (%.1f%%)", len(records), len(events), 100*float64(len(records))/float64(len(events)))

	alerts, err := ReplayFeed(cfg, records)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != len(want) {
		t.Fatalf("replayed %d alerts, want %d", len(alerts), len(want))
	}
	for i, a := range alerts {
		if a.String() != want[i] {
			t.Fatalf("alert %d: replay %q, want %q", i, a.String(), want[i])
		}
	}
}

// tagAll sets router-style sequence headers on req: base plus a full
// mask over the batch's lines.
func tagAll(req *http.Request, base uint64, lines int) {
	mask := make([]uint64, (lines+63)/64)
	for i := 0; i < lines; i++ {
		mask[i/64] |= 1 << (i % 64)
	}
	req.Header.Set(SeqBaseHeader, strconv.FormatUint(base, 10))
	req.Header.Set(SeqMaskHeader, base64.StdEncoding.EncodeToString(console.MaskBytes(mask)))
}

// postTagged POSTs one batch at s's handler, tagged by tagAll, and
// returns the status and whether the daemon called it a duplicate.
func postTagged(t testing.TB, s *Server, source string, body []byte, base uint64) (status int, duplicate bool) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	tagAll(req, base, console.CountLines(body))
	if source != "" {
		req.Header.Set(SourceHeader, source)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get(DuplicateHeader) != ""
}

// feedDoc reads s's /alertfeed in process.
func feedDoc(t testing.TB, s *Server) (doc FeedDoc) {
	t.Helper()
	if err := json.Unmarshal(serveGet(t, s, "/alertfeed"), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestAlertFeedRestart is one fixed schedule on a one-replica fleet:
// tagged ingest, a graceful restart from the shutdown snapshot, a replay
// of the last sub-batch, an untagged batch. The feed survives the restart
// — still complete, still replaying to the exact single-engine alert
// stream — and so does the window of applied bases: the replay is
// acknowledged and not applied. The untagged batch afterwards must drop
// completeness.
func TestAlertFeedRestart(t *testing.T) {
	events := simEvents()
	log := encodeLog(t, events)
	dir := t.TempDir()

	cfg := DefaultConfig()
	cfg.SnapshotDir = dir
	s := NewServer(cfg)

	base, last := uint64(0), []byte(nil)
	for _, batch := range chunkLog(log, 2048) {
		if status, dup := postTagged(t, s, "feedtest", batch, base); status != http.StatusAccepted || dup {
			t.Fatalf("tagged batch at base %d: status %d, duplicate %v", base, status, dup)
		}
		base, last = base+uint64(console.CountLines(batch)), batch
	}
	quiesce(t, s)

	doc := feedDoc(t, s)
	if !doc.Complete {
		t.Fatalf("feed incomplete before restart: %+v", docSummary(doc))
	}
	if doc.CoveredEvents == 0 || doc.UntaggedEvents != 0 {
		t.Fatalf("covered %d, untagged %d; want >0, 0", doc.CoveredEvents, doc.UntaggedEvents)
	}

	want := engineAlerts(t, events)
	checkReplayMatches(t, doc, want)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Warm restart from the snapshot directory.
	s2 := testServer(t, cfg)
	ws, err := s2.WarmStart(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Replayed == 0 {
		t.Fatal("warm start replayed nothing")
	}

	// The router retries a sub-batch whose 202 the restart ate.
	if status, dup := postTagged(t, s2, "feedtest", last, base-uint64(console.CountLines(last))); status != http.StatusAccepted || !dup {
		t.Fatalf("replay after restart: status %d, duplicate %v; want 202 and a duplicate", status, dup)
	}
	quiesce(t, s2)

	doc2 := feedDoc(t, s2)
	if !doc2.Complete {
		t.Fatalf("feed incomplete after restart: %+v", docSummary(doc2))
	}
	if st := s2.StatsNow(); doc2.CoveredEvents != doc.CoveredEvents || st.BatchesDuplicate != 1 || !st.AlertFeedComplete {
		t.Fatalf("covered %d after restart and replay, want %d; %d duplicates booked, want 1; alert_feed_complete %v", doc2.CoveredEvents, doc.CoveredEvents, st.BatchesDuplicate, st.AlertFeedComplete)
	}
	checkReplayMatches(t, doc2, want)

	// An untagged batch poisons completeness — the router must be told
	// it can no longer vouch for exactness.
	rec := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(chunkLog(log, 64)[0])))
	quiesce(t, s2)
	if doc3 := feedDoc(t, s2); rec.Code != http.StatusAccepted || doc3.Complete || doc3.UntaggedEvents == 0 || s2.StatsNow().AlertFeedComplete {
		t.Fatalf("untagged ingest: status %d, feed complete=%v untagged=%d", rec.Code, doc3.Complete, doc3.UntaggedEvents)
	}
}

func engineAlerts(t *testing.T, events []console.Event) []string {
	t.Helper()
	eng := alert.NewEngine(alert.DefaultConfig())
	eng.Run(events)
	var out []string
	for _, a := range eng.Alerts() {
		out = append(out, a.String())
	}
	if len(out) == 0 {
		t.Fatal("engine raised no alerts")
	}
	return out
}

func checkReplayMatches(t *testing.T, doc FeedDoc, want []string) {
	t.Helper()
	alerts, err := ReplayFeed(doc.Config, doc.Records)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != len(want) {
		t.Fatalf("feed replay raised %d alerts, want %d", len(alerts), len(want))
	}
	for i, a := range alerts {
		if a.String() != want[i] {
			t.Fatalf("alert %d: feed replay %q, want %q", i, a.String(), want[i])
		}
	}
}

func docSummary(doc FeedDoc) string {
	return fmt.Sprintf("complete=%v covered=%d untagged=%d records=%d",
		doc.Complete, doc.CoveredEvents, doc.UntaggedEvents, len(doc.Records))
}

// TestPerSourceAccountingExact forces shedding with one slot and a
// stalled applier, then checks the books: for every source,
// offered == accepted + shed in both lines and batches, and the
// untracked (headerless) path books nothing.
func TestPerSourceAccountingExact(t *testing.T) {
	events := simEvents()
	log := encodeLog(t, events[:4000])
	batches := chunkLog(log, 256)

	cfg := DefaultConfig()
	cfg.QueueDepth = 1
	s := testServer(t, cfg)
	gate := make(chan struct{})
	s.StallForTest(gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type clientBooks struct{ offered, accepted, shed uint64 }
	books := map[string]*clientBooks{"alpha": {}, "beta": {}}
	post := func(source string, body []byte) {
		lines := uint64(console.CountLines(body))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(SourceHeader, source)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		b := books[source]
		b.offered += lines
		switch resp.StatusCode {
		case http.StatusAccepted:
			b.accepted += lines
		case http.StatusTooManyRequests:
			b.shed += lines
		default:
			t.Fatalf("POST: status %d", resp.StatusCode)
		}
	}
	for i, batch := range batches {
		if i%2 == 0 {
			post("alpha", batch)
		} else {
			post("beta", batch)
		}
	}
	close(gate)
	quiesce(t, s)

	st := s.StatsNow()
	shedTotal := uint64(0)
	for name, b := range books {
		got, ok := st.Sources[name]
		if !ok {
			t.Fatalf("no server books for source %q", name)
		}
		if got.OfferedLines != b.offered || got.AcceptedLines != b.accepted || got.ShedLines != b.shed {
			t.Fatalf("source %q: server books offered/accepted/shed = %d/%d/%d, client saw %d/%d/%d",
				name, got.OfferedLines, got.AcceptedLines, got.ShedLines, b.offered, b.accepted, b.shed)
		}
		if got.OfferedLines != got.AcceptedLines+got.ShedLines {
			t.Fatalf("source %q: offered %d != accepted %d + shed %d",
				name, got.OfferedLines, got.AcceptedLines, got.ShedLines)
		}
		if got.OfferedBatches != got.AcceptedBatches+got.ShedBatches {
			t.Fatalf("source %q: batch books don't balance: %+v", name, got)
		}
		shedTotal += got.ShedLines
	}
	if shedTotal == 0 {
		t.Fatal("no shedding happened; the exactness check never bit")
	}
}

// TestSourceCapBoundsBooks: the source name is client-supplied, so
// 10,000 distinct names must not become 10,000 map entries and 10,000
// labelled series. Names past MaxSources book under OverflowSource and
// the books still close exactly, per source and in total.
func TestSourceCapBoundsBooks(t *testing.T) {
	s := testServer(t, DefaultConfig())
	line := encodeLog(t, simEvents()[:1])
	const names = 10000
	var accepted, shed uint64
	for i := 0; i < names; i++ {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(line))
		req.Header.Set(SourceHeader, fmt.Sprintf("feed-%d", i))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("POST %d: status %d", i, rec.Code)
		}
	}
	quiesce(t, s)

	st := s.StatsNow()
	if len(st.Sources) > MaxSources+1 {
		t.Fatalf("%d distinct names left %d source entries; cap is %d plus the overflow entry", names, len(st.Sources), MaxSources)
	}
	var sum SourceStats
	for name, got := range st.Sources {
		if got.OfferedLines != got.AcceptedLines+got.ShedLines || got.OfferedBatches != got.AcceptedBatches+got.ShedBatches {
			t.Fatalf("source %q books don't balance: %+v", name, got)
		}
		sum.OfferedLines += got.OfferedLines
		sum.AcceptedLines += got.AcceptedLines
		sum.ShedLines += got.ShedLines
	}
	if sum.OfferedLines != names || sum.AcceptedLines != accepted || sum.ShedLines != shed {
		t.Fatalf("books total offered/accepted/shed = %d/%d/%d, client saw %d/%d/%d",
			sum.OfferedLines, sum.AcceptedLines, sum.ShedLines, names, accepted, shed)
	}
	if got := st.Sources[OverflowSource].OfferedLines; got != names-MaxSources {
		t.Fatalf("overflow entry booked %d lines, want the %d past the cap", got, names-MaxSources)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if n := strings.Count(rec.Body.String(), "titand_source_lines_offered_total{"); n > MaxSources+1 {
		t.Fatalf("/metrics carries %d per-source series, cap is %d", n, MaxSources+1)
	}
}
