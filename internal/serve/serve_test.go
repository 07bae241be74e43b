package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"titanre/internal/alert"
	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/predict"
	"titanre/internal/sim"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// simEvents runs (and memoizes) a one-month simulation shared by the
// equivalence and benchmark tests.
var simEvents = sync.OnceValue(func() []console.Event {
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 1, 0)
	return sim.Run(cfg).Events
})

// encodeLog renders events as the raw console log bytes.
func encodeLog(t testing.TB, events []console.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := console.WriteLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func quiesce(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}

// retained is s's in-memory retained log — the unsealed tail, in arrival
// order — as a query would capture it.
func retained(s *Server) []console.Event {
	_, tail := s.historyView()
	return tail
}

// chunkLog splits a console log into batches of about batchLines lines.
func chunkLog(log []byte, batchLines int) [][]byte {
	var out [][]byte
	start, lines := 0, 0
	for i, b := range log {
		if b == '\n' {
			lines++
			if lines >= batchLines {
				out = append(out, log[start:i+1])
				start, lines = i+1, 0
			}
		}
	}
	if start < len(log) {
		out = append(out, log[start:])
	}
	return out
}

// ingestLog posts log at s's handler in 512-line batches — one in-order
// connection, in process — and waits until all of it is applied.
func ingestLog(t testing.TB, s *Server, log []byte) {
	t.Helper()
	for _, batch := range chunkLog(log, 512) {
		for {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(batch)))
			if rec.Code == http.StatusAccepted {
				break
			}
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("POST /ingest: status %d: %s", rec.Code, rec.Body)
			}
			quiesce(t, s)
		}
	}
	quiesce(t, s)
}

// serveGet answers path from s's handler in process.
func serveGet(t testing.TB, s *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// batchReference is the batch pipeline over a console log: parse it the
// way titanreport would, train the predictor on the parse, then run the
// detectors and the armed rules over it. The streaming tests hold the
// daemon to these alert and warning renderings byte for byte.
func batchReference(t testing.TB, log []byte) (model *predict.Model, batchEvents []console.Event, wantAlerts, wantWarnings []string) {
	t.Helper()
	batchEvents, err := console.NewCorrelator().ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	// One month of history is thin next to the study's 21; loosen the
	// thresholds so the predictor arms rules over it.
	pcfg := predict.DefaultConfig()
	pcfg.MinSupport = 5
	pcfg.MinConfidence = 0.01
	model = predict.Train(batchEvents, pcfg)
	if len(model.Rules()) == 0 {
		t.Fatal("predictor learned no rules on the one-month dataset; equivalence test needs some")
	}
	batchAlerts := alert.NewEngine(alert.DefaultConfig())
	batchAlerts.Run(batchEvents)
	for _, a := range batchAlerts.Alerts() {
		wantAlerts = append(wantAlerts, a.String())
	}
	for _, w := range model.WarningsOver(batchEvents) {
		wantWarnings = append(wantWarnings, w.String())
	}
	if len(wantAlerts) == 0 || len(wantWarnings) == 0 {
		t.Fatalf("batch pipeline produced %d alerts / %d warnings; need both non-empty", len(wantAlerts), len(wantWarnings))
	}
	return model, batchEvents, wantAlerts, wantWarnings
}

// TestStreamMatchesBatchHTTP is the tentpole equivalence check: a full
// generated dataset streamed through titand over HTTP yields
// byte-identical alert and precursor-warning sets to the batch pipeline
// over the same bytes — through the lossless retry path: the applier is
// held until the daemon has shed a batch, so the client is answered 429
// at least once and has to re-offer.
func TestStreamMatchesBatchHTTP(t *testing.T) {
	const batchLines = 256
	events := simEvents()
	events = events[:len(events)/batchLines*batchLines] // whole batches: every shed one is batchLines long
	log := encodeLog(t, events)

	model, batchEvents, wantAlerts, wantWarnings := batchReference(t, log)

	// Streaming pipeline: small queue so the lossless retry path gets
	// exercised, single ordered connection.
	cfg := DefaultConfig()
	cfg.QueueDepth = 8
	cfg.Model = model
	s := testServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	gate := make(chan struct{})
	s.StallForTest(gate)
	go func() {
		for s.metrics.batchesShed.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		close(gate)
	}()

	stats, err := StreamLog(context.Background(), ts.URL, bytes.NewReader(log), StreamOptions{
		BatchLines:  batchLines,
		Concurrency: 1,
		Retry429:    true,
	})
	if err != nil {
		t.Fatalf("stream: %v (%v)", err, stats)
	}
	if stats.LinesAccepted != uint64(len(events)) {
		t.Fatalf("accepted %d lines, want %d", stats.LinesAccepted, len(events))
	}
	quiesce(t, s)

	gotAlerts := s.AlertTexts()
	gotWarnings := s.WarningTexts()
	if fmt.Sprint(gotAlerts) != fmt.Sprint(wantAlerts) {
		t.Fatalf("streamed alerts diverge from batch: %d vs %d\nfirst stream: %v\nfirst batch:  %v",
			len(gotAlerts), len(wantAlerts), first(gotAlerts), first(wantAlerts))
	}
	if fmt.Sprint(gotWarnings) != fmt.Sprint(wantWarnings) {
		t.Fatalf("streamed warnings diverge from batch: %d vs %d", len(gotWarnings), len(wantWarnings))
	}

	// The HTTP views carry the same canonical texts.
	var alertViews []AlertView
	getJSON(t, ts.URL+"/alerts", &alertViews)
	if len(alertViews) != len(wantAlerts) {
		t.Fatalf("/alerts returned %d, want %d", len(alertViews), len(wantAlerts))
	}
	for i := range alertViews {
		if alertViews[i].Text != wantAlerts[i] {
			t.Fatalf("/alerts[%d].text = %q, want %q", i, alertViews[i].Text, wantAlerts[i])
		}
	}
	var warnViews []WarningView
	getJSON(t, ts.URL+"/warnings", &warnViews)
	if len(warnViews) != len(wantWarnings) {
		t.Fatalf("/warnings returned %d, want %d", len(warnViews), len(wantWarnings))
	}

	// The online event account matches the batch parse.
	st := s.StatsNow()
	if st.EventsApplied != uint64(len(batchEvents)) {
		t.Fatalf("events applied = %d, batch parsed %d", st.EventsApplied, len(batchEvents))
	}
	// Every 429 was booked exactly and retried to admission.
	if stats.Batches429 == 0 || st.BatchesShed != stats.Batches429 || st.LinesShed != batchLines*stats.Batches429 {
		t.Fatalf("client saw %d 429s; daemon booked %d batches / %d lines shed, want the same and %d lines each",
			stats.Batches429, st.BatchesShed, st.LinesShed, batchLines)
	}
	if st.FastHits == 0 {
		t.Fatal("no fast-path decodes on a canonical log")
	}
}

// TestNodeAndStatsEndpoints exercises the per-node state view on a
// hand-built stream with known card history.
func TestNodeAndStatsEndpoints(t *testing.T) {
	node := topology.NodeID(4242)
	cname := topology.CNameOf(node)
	at := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	mk := func(sec int, code xid.Code, page int32) console.Event {
		e := console.Event{
			Time: at.Add(time.Duration(sec) * time.Second), Node: node,
			Serial: 9001, Code: code, Page: page, Job: 7,
		}
		if code == xid.DoubleBitError {
			e.StructureValid = true
			e.Structure = gpu.DeviceMemory
		}
		return e
	}
	events := []console.Event{
		mk(0, xid.GraphicsEngineException, console.NoPage),
		mk(10, xid.DoubleBitError, 100),       // retires page 100 (DBE rule)
		mk(20, xid.ECCPageRetirement, 100),    // driver record for the same page: no-op
		mk(30, xid.ECCPageRetirementAlt, 200), // two-SBE retirement of page 200
		mk(40, xid.GPUStoppedProcessing, console.NoPage),
	}
	log := encodeLog(t, events)

	cfg := DefaultConfig()
	s := testServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/ingest", "text/plain", bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %s", resp.Status)
	}
	quiesce(t, s)

	var view NodeView
	getJSON(t, ts.URL+"/nodes/"+cname, &view)
	if view.Node != cname || view.Total != len(events) {
		t.Fatalf("node view = %+v", view)
	}
	if view.WindowCount != len(events) {
		t.Fatalf("window count = %d, want %d (all within 24h)", view.WindowCount, len(events))
	}
	if len(view.Cards) != 1 {
		t.Fatalf("cards = %d, want 1", len(view.Cards))
	}
	card := view.Cards[0]
	if card.DBEEvents != 1 || card.RetiredPages != 2 || card.SBEInferred != 2 {
		t.Fatalf("card = %+v, want 1 DBE, 2 retired pages, 2 inferred SBEs", card)
	}
	if card.Headroom != 62 {
		t.Fatalf("headroom = %d, want 62", card.Headroom)
	}

	// Unknown node: 404. Bad cname: 400.
	if code := getStatus(t, ts.URL+"/nodes/c0-0c0s0n3"); code != http.StatusNotFound {
		t.Fatalf("unknown node status = %d, want 404", code)
	}
	if code := getStatus(t, ts.URL+"/nodes/bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad cname status = %d, want 400", code)
	}

	st := s.StatsNow()
	if st.NodesTracked != 1 || st.CardsTracked != 1 {
		t.Fatalf("tracked = %d nodes / %d cards, want 1/1", st.NodesTracked, st.CardsTracked)
	}
	if st.EventsByCode[xid.DoubleBitError.String()] != 1 {
		t.Fatalf("per-code totals = %v", st.EventsByCode)
	}

	// /metrics carries the decode counters in exposition format.
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"titand_ingest_lines_total 5",
		"titand_events_applied_total 5",
		"titand_decode_fast_hits_total 5",
		"titand_decode_fast_fallbacks_total 0",
		"titand_decode_oversized_total 0",
		"titand_nodes_tracked 1",
		"titand_ingest_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz reports ok while live.
	var health map[string]any
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
}

// TestAppliedIsVisible: events_applied means applied everywhere. As soon
// as /stats reports a batch's events applied, /nodes/{cname} reflects
// every one of them — no Quiesce, no barrier between the counter and the
// per-node state.
func TestAppliedIsVisible(t *testing.T) {
	base := time.Date(2014, 6, 1, 12, 0, 0, 0, time.UTC)
	node := topology.NodeID(4242)
	cname := topology.CNameOf(node)
	const perBatch = 64
	batch := make([]console.Event, perBatch)

	s := testServer(t, DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for round := 1; round <= 50; round++ {
		for i := range batch {
			batch[i] = console.Event{
				Time: base.Add(time.Duration(round*perBatch+i) * time.Second),
				Node: node, Code: xid.GraphicsEngineException, Serial: gpu.Serial(900), Job: 7, Page: console.NoPage,
			}
		}
		resp, err := http.Post(ts.URL+"/ingest", "text/plain", bytes.NewReader(encodeLog(t, batch)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: ingest status %s", round, resp.Status)
		}
		want := round * perBatch
		deadline := time.Now().Add(10 * time.Second)
		for {
			var st Stats
			getJSON(t, ts.URL+"/stats", &st)
			if st.EventsApplied >= uint64(want) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: events_applied stuck at %d", round, st.EventsApplied)
			}
		}
		var view NodeView
		getJSON(t, ts.URL+"/nodes/"+cname, &view)
		if view.Total != want {
			t.Fatalf("round %d: /stats says %d events applied but /nodes/%s has seen %d", round, want, cname, view.Total)
		}
	}
}

// TestLoadShedding fills the admission slots and checks 429s with exact
// dropped-line accounting and no stall for subsequent accepted work.
func TestLoadShedding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 2
	cfg.RetainEvents = false
	s := testServer(t, cfg)

	// Stall the applier, then fill the slots.
	events := simEvents()[:2000]
	log := encodeLog(t, events)
	gate := make(chan struct{})
	s.StallForTest(gate)

	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	var shed, accepted int
	for i := 0; i < 12; i++ {
		rec := post(log)
		switch rec.Code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
			if got := rec.Header().Get("X-Shed-Lines"); got != fmt.Sprint(len(events)) {
				t.Fatalf("X-Shed-Lines = %q, want %d", got, len(events))
			}
		default:
			t.Fatalf("unexpected status %d", rec.Code)
		}
	}
	if shed == 0 {
		t.Fatal("queue never shed at 12 batches over depth 2")
	}
	close(gate)
	quiesce(t, s)

	st := s.StatsNow()
	if st.BatchesShed != uint64(shed) || st.LinesShed != uint64(shed*len(events)) {
		t.Fatalf("shed accounting: %d batches / %d lines, want %d / %d",
			st.BatchesShed, st.LinesShed, shed, shed*len(events))
	}
	// The pipeline keeps flowing after shedding.
	rec := post(log)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("post-shed ingest status = %d", rec.Code)
	}
	quiesce(t, s)
	if got := s.StatsNow().LinesAccepted; got != uint64((accepted+1)*len(events)) {
		t.Fatalf("accepted lines = %d, want %d", got, (accepted+1)*len(events))
	}
}

// TestAdmissionBoundsPipeline: QueueDepth bounds everything behind the
// door, not just the wait in front of one stage. With the applier held,
// 500 offers against depth d are answered exactly d 202s and 500-d 429s
// (each with the exact X-Shed-Lines), only the d admitted batches are
// ever decoded, and once released the books close in lines and batches,
// globally and per source.
func TestAdmissionBoundsPipeline(t *testing.T) {
	const offers, lines = 500, 1000
	log := encodeLog(t, simEvents()[:lines])
	for _, d := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("depth", d), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.QueueDepth = d
			s := testServer(t, cfg)
			gate := make(chan struct{})
			s.StallForTest(gate)
			sources := []string{"alpha", "beta"}
			accepted := map[string]uint64{}
			for i := 0; i < offers; i++ {
				src := sources[i%2]
				req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(log))
				req.Header.Set(SourceHeader, src)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusAccepted:
					accepted[src]++
				case http.StatusTooManyRequests:
					if got := rec.Header().Get("X-Shed-Lines"); got != fmt.Sprint(lines) {
						t.Fatalf("offer %d: X-Shed-Lines = %q, want %d", i, got, lines)
					}
				default:
					t.Fatalf("offer %d: status %d", i, rec.Code)
				}
			}
			if n := accepted["alpha"] + accepted["beta"]; n != uint64(d) {
				t.Fatalf("admitted %d of %d offers with the applier held, want exactly the depth %d", n, offers, d)
			}
			// Held, the d slots are all there is: nothing else was decoded.
			if st := s.StatsNow(); st.QueueDepth != d || st.Events != uint64(d*lines) || st.EventsApplied != 0 {
				t.Fatalf("held: queue_depth %d, %d events decoded, %d applied; want %d, %d, 0", st.QueueDepth, st.Events, st.EventsApplied, d, d*lines)
			}
			close(gate)
			quiesce(t, s)

			st := s.StatsNow()
			if st.QueueDepth != 0 || st.EventsApplied != uint64(d*lines) {
				t.Fatalf("released: queue_depth %d, %d events applied; want 0, %d", st.QueueDepth, st.EventsApplied, d*lines)
			}
			if st.BatchesAccepted != uint64(d) || st.BatchesShed != uint64(offers-d) ||
				st.LinesAccepted != uint64(d*lines) || st.LinesShed != uint64((offers-d)*lines) {
				t.Fatalf("books: %d + %d batches, %d + %d lines; want %d + %d, %d + %d", st.BatchesAccepted, st.BatchesShed,
					st.LinesAccepted, st.LinesShed, d, offers-d, d*lines, (offers-d)*lines)
			}
			for _, src := range sources {
				got := st.Sources[src]
				want := SourceStats{
					OfferedBatches: offers / 2, AcceptedBatches: accepted[src], ShedBatches: offers/2 - accepted[src],
					OfferedLines: offers / 2 * lines, AcceptedLines: accepted[src] * lines, ShedLines: (offers/2 - accepted[src]) * lines,
				}
				if got != want {
					t.Fatalf("source %q books %+v, want %+v", src, got, want)
				}
			}
		})
	}
}

// TestSequentialConnectionsKeepOrder is the 202's ordering promise as an
// executable statement: a batch is applied before any batch whose
// request begins after its response. Every batch goes over a connection
// of its own (so a request goroutine of its own), strictly one after the
// other, with and without router tags; alerts, warnings and the
// arrival-order history must equal the batch pipeline's.
func TestSequentialConnectionsKeepOrder(t *testing.T) {
	log := encodeLog(t, simEvents())
	model, batchEvents, wantAlerts, wantWarnings := batchReference(t, log)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for _, tagged := range []bool{false, true} {
		t.Run(fmt.Sprint("tagged=", tagged), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = model
			s := testServer(t, cfg)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			base := uint64(0)
			for i, body := range chunkLog(log, 512) {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if tagged {
					lines := console.CountLines(body)
					tagAll(req, base, lines)
					base += uint64(lines)
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("batch %d: %s", i, resp.Status)
				}
			}
			quiesce(t, s)
			if !slices.Equal(retained(s), batchEvents) {
				t.Error("arrival-order history differs from the batch parse")
			}
			if got := s.AlertTexts(); !slices.Equal(got, wantAlerts) {
				t.Errorf("alerts diverge from batch: %d vs %d", len(got), len(wantAlerts))
			}
			if got := s.WarningTexts(); !slices.Equal(got, wantWarnings) {
				t.Errorf("warnings diverge from batch: %d vs %d", len(got), len(wantWarnings))
			}
		})
	}
}

// TestIngestRejections covers the malformed-request paths.
func TestIngestRejections(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBodyBytes = 1024
	s := testServer(t, cfg)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader("")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body status = %d", rec.Code)
	}

	big := strings.Repeat("x", 4096)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ingest", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest status = %d", rec.Code)
	}
	if got := s.StatsNow().BatchesRejected; got != 2 {
		t.Fatalf("rejected batches = %d, want 2", got)
	}
}

func first(s []string) string {
	if len(s) == 0 {
		return "<none>"
	}
	return s[0]
}

func getJSON(t testing.TB, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func getStatus(t testing.TB, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
