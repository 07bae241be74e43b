package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/predict"
	"titanre/internal/sim"
	"titanre/internal/topology"
)

// streamAll streams log through a lossless single connection and waits
// for the pipeline to apply everything.
func streamAll(t *testing.T, s *Server, base string, log []byte) {
	t.Helper()
	stats, err := StreamLog(context.Background(), base, bytes.NewReader(log), StreamOptions{Retry429: true})
	if err != nil {
		t.Fatalf("stream: %v (%v)", err, stats)
	}
	quiesce(t, s)
}

// TestCompactionBoundsRetained is the bounded-memory contract: after a
// compaction pass, only events younger than CompactAge (relative to the
// newest applied event) stay in memory; everything older lives in
// sealed columnar segments, and nothing is lost or duplicated across
// the split. It also covers the /nodes/{cname}/history endpoint and the
// compaction observability surface.
func TestCompactionBoundsRetained(t *testing.T) {
	events := simEvents()[:20000]
	log := encodeLog(t, events)
	want, err := console.NewCorrelator().ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	console.SortEvents(want)

	cfg := DefaultConfig()
	cfg.CompactDir = filepath.Join(t.TempDir(), "segments")
	cfg.CompactAge = 24 * time.Hour
	cfg.CompactMin = 1
	cfg.CompactInterval = time.Hour // idle; the test compacts explicitly
	s := testServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	streamAll(t, s, ts.URL, log)

	sealed, err := s.CompactNow()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if sealed == 0 {
		t.Fatal("compaction sealed nothing over a multi-day backlog")
	}

	st := s.StatsNow()
	if st.SealedEvents != sealed || st.SealedSegments == 0 {
		t.Fatalf("stats: sealed %d events in %d segments, want %d in >0", st.SealedEvents, st.SealedSegments, sealed)
	}
	if st.RetainedEvents+st.SealedEvents != len(want) {
		t.Fatalf("retained %d + sealed %d != %d applied", st.RetainedEvents, st.SealedEvents, len(want))
	}
	if st.RetainedEvents == 0 {
		t.Fatal("compaction with a 24h age drained the tail completely")
	}
	if st.Compactions != 1 || st.EventsSealed != uint64(sealed) || st.LastCompactionUnix == 0 {
		t.Fatalf("stats: compactions=%d events_sealed=%d last=%d", st.Compactions, st.EventsSealed, st.LastCompactionUnix)
	}
	if st.SealedSegmentBytes <= 0 || st.HeapInuseBytes == 0 {
		t.Fatalf("stats: segment bytes %d, heap inuse %d", st.SealedSegmentBytes, st.HeapInuseBytes)
	}

	// The age bound: every retained event is younger than the cutoff,
	// and the sealed store holds exactly the sorted prefix before it.
	cutoff := want[len(want)-1].Time.Add(-cfg.CompactAge)
	for _, ev := range retained(s) {
		if !ev.Time.After(cutoff) {
			t.Fatalf("retained event at %v predates the %v cutoff", ev.Time, cutoff)
		}
	}
	got := s.SealedStore().Events()
	got = append(got, retained(s)...)
	console.SortEvents(got)
	if len(got) != len(want) {
		t.Fatalf("sealed+retained = %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %v, want %v", i, got[i], want[i])
		}
	}

	// Idempotence: nothing new aged past the cutoff, so a second pass
	// seals nothing — the soak's retained count is flat between ticks.
	if again, err := s.CompactNow(); err != nil || again != 0 {
		t.Fatalf("second compact sealed %d (%v), want 0", again, err)
	}

	// /metrics carries the compaction gauges.
	body := getBody(t, ts.URL+"/metrics")
	for _, name := range []string{
		"titand_retained_events", "titand_sealed_segments", "titand_sealed_events",
		"titand_sealed_segment_bytes", "titand_last_compaction_timestamp_seconds",
		"titand_heap_inuse_bytes", "titand_compactions_total", "titand_events_sealed_total",
	} {
		if !bytes.Contains(body, []byte(name)) {
			t.Fatalf("/metrics is missing %s", name)
		}
	}

	// /nodes/{cname}/history merges pruned segment scans with the tail.
	node := want[0].Node
	nodeTotal := 0
	for _, ev := range want {
		if ev.Node == node {
			nodeTotal++
		}
	}
	var hist NodeHistory
	getJSON(t, ts.URL+"/nodes/"+topology.CNameOf(node)+"/history", &hist)
	if len(hist.Events) != nodeTotal {
		t.Fatalf("history for %s has %d events, want %d", topology.CNameOf(node), len(hist.Events), nodeTotal)
	}
	if hist.Sealed+hist.Retained != nodeTotal || hist.Sealed == 0 {
		t.Fatalf("history split sealed=%d retained=%d, want sum %d with sealed>0", hist.Sealed, hist.Retained, nodeTotal)
	}
	for i := 1; i < len(hist.Events); i++ {
		if hist.Events[i].Time.Before(hist.Events[i-1].Time) {
			t.Fatalf("history out of order at %d", i)
		}
	}
	// Time-bounded query: only events inside the window come back.
	sinceT := want[len(want)/2].Time
	bounded := 0
	for _, ev := range want {
		if ev.Node == node && !ev.Time.Before(sinceT) {
			bounded++
		}
	}
	var histSince NodeHistory
	getJSON(t, ts.URL+"/nodes/"+topology.CNameOf(node)+"/history?since="+sinceT.UTC().Format(time.RFC3339), &histSince)
	if len(histSince.Events) != bounded {
		t.Fatalf("bounded history has %d events, want %d", len(histSince.Events), bounded)
	}
}

// TestWarmRestartMatchesFullStream is the warm-restart equivalence
// check: daemon A streams the front half of a month, compacts mid-life
// and drains; daemon B warm-starts from A's state directory and
// streams the back half; its /alerts and /warnings bodies must be
// byte-identical to daemon C, which streamed the whole month.
func TestWarmRestartMatchesFullStream(t *testing.T) {
	events := simEvents()
	log := encodeLog(t, events)
	split := len(log) / 2
	split += bytes.IndexByte(log[split:], '\n') + 1
	front, back := log[:split], log[split:]

	parsed, err := console.NewCorrelator().ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := predict.DefaultConfig()
	pcfg.MinSupport = 5
	pcfg.MinConfidence = 0.01
	model := predict.Train(parsed, pcfg)
	if len(model.Rules()) == 0 {
		t.Fatal("predictor learned no rules; the equivalence needs /warnings traffic")
	}

	stateDir := t.TempDir()

	// Daemon A: front half, with compaction and a shutdown flush.
	cfgA := DefaultConfig()
	cfgA.Model = model
	cfgA.SnapshotDir = stateDir
	cfgA.CompactDir = filepath.Join(stateDir, "segments")
	cfgA.CompactAge = 48 * time.Hour
	cfgA.CompactMin = 1
	cfgA.CompactInterval = time.Hour
	a := NewServer(cfgA)
	tsA := httptest.NewServer(a.Handler())
	streamAll(t, a, tsA.URL, front)
	if sealed, err := a.CompactNow(); err != nil || sealed == 0 {
		t.Fatalf("daemon A compacted %d events (%v), want >0", sealed, err)
	}
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("daemon A shutdown: %v", err)
	}

	// The flushed state directory is a loadable dataset whose sealed
	// segments hold the complete front half (the shutdown's final seal)
	// in stream order, element-equal to a batch parse of the same bytes.
	if !dataset.HasSegments(stateDir) {
		t.Fatal("daemon A left no sealed segments")
	}
	wantFront, err := console.NewCorrelator().ParseAll(bytes.NewReader(front))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dataset.Load(stateDir, sim.Config{})
	if err != nil {
		t.Fatalf("loading A's snapshot: %v", err)
	}
	if len(res.Events) != len(wantFront) {
		t.Fatalf("snapshot has %d events, want %d", len(res.Events), len(wantFront))
	}
	for i := range wantFront {
		if res.Events[i] != wantFront[i] {
			t.Fatalf("snapshot event %d = %v, want %v", i, res.Events[i], wantFront[i])
		}
	}

	// Daemon B: warm start from A's state, then the back half.
	cfgB := DefaultConfig()
	cfgB.Model = model
	cfgB.CompactDir = filepath.Join(stateDir, "segments")
	cfgB.CompactAge = 48 * time.Hour
	cfgB.CompactMin = 1
	cfgB.CompactInterval = time.Hour
	b := testServer(t, cfgB)
	ws, err := b.WarmStart(stateDir)
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if !ws.FromSegments || ws.Replayed != len(wantFront) {
		t.Fatalf("warm start replayed %d events (segments=%v), want %d from segments", ws.Replayed, ws.FromSegments, len(wantFront))
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	streamAll(t, b, tsB.URL, back)

	// Daemon C: the whole month in one life.
	cfgC := DefaultConfig()
	cfgC.Model = model
	cFull := testServer(t, cfgC)
	tsC := httptest.NewServer(cFull.Handler())
	defer tsC.Close()
	streamAll(t, cFull, tsC.URL, log)

	for _, path := range []string{"/alerts", "/warnings"} {
		gotB := getBody(t, tsB.URL+path)
		gotC := getBody(t, tsC.URL+path)
		if len(gotB) == 0 || bytes.Equal(gotB, []byte("[]\n")) {
			t.Fatalf("%s from the warm daemon is empty; equivalence is vacuous", path)
		}
		if !bytes.Equal(gotB, gotC) {
			t.Fatalf("%s diverges between warm-restarted and full-stream daemons (%d vs %d bytes)", path, len(gotB), len(gotC))
		}
	}
	// And the online per-code accounting agrees.
	stB, stC := b.StatsNow(), cFull.StatsNow()
	if stB.EventsApplied != stC.EventsApplied {
		t.Fatalf("warm daemon applied %d events, full daemon %d", stB.EventsApplied, stC.EventsApplied)
	}
	if fmt.Sprint(stB.EventsByCode) != fmt.Sprint(stC.EventsByCode) {
		t.Fatalf("per-code totals diverge:\nwarm: %v\nfull: %v", stB.EventsByCode, stC.EventsByCode)
	}
}

// TestWarmStartColdDir: pointing -warm-dir at a missing or empty state
// directory is a clean cold start, so the same command line works on
// first boot.
func TestWarmStartColdDir(t *testing.T) {
	s := testServer(t, DefaultConfig())
	ws, err := s.WarmStart(filepath.Join(t.TempDir(), "never-written"))
	if err != nil {
		t.Fatalf("cold warm start: %v", err)
	}
	if ws.Replayed != 0 || ws.FromSegments {
		t.Fatalf("cold warm start replayed %+v", ws)
	}
}

// TestWarmStartFlatSnapshot: a snapshot written without compaction (no
// segments, console.log only) warm-starts through the flat path and the
// replayed events re-enter the retained log.
func TestWarmStartFlatSnapshot(t *testing.T) {
	events := simEvents()[:5000]
	log := encodeLog(t, events)
	dir := t.TempDir()

	cfg := DefaultConfig()
	cfg.SnapshotDir = dir
	a := NewServer(cfg)
	tsA := httptest.NewServer(a.Handler())
	streamAll(t, a, tsA.URL, log)
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	b := testServer(t, DefaultConfig())
	ws, err := b.WarmStart(dir)
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	want, err := console.NewCorrelator().ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if ws.FromSegments || ws.Replayed != len(want) {
		t.Fatalf("flat warm start replayed %+v, want %d from console.log", ws, len(want))
	}
	if got := len(retained(b)); got != len(want) {
		t.Fatalf("retained %d events after flat warm start, want %d", got, len(want))
	}
}

func getBody(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return body
}
