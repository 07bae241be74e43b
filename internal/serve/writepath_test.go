package serve

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/race"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// TestNodeViewGolden holds GET /nodes/{cname} to the bytes the daemon
// answered while per-node state was Go maps (testdata/node_view.golden.json
// was captured from that build with this very test): three codes, two
// cards first seen out of serial order, a DBE-retired and a
// two-SBE-retired page. The dense table and its linear searches must not
// show on the wire.
func TestNodeViewGolden(t *testing.T) {
	node := topology.NodeID(4242)
	at := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	mk := func(sec int, serial gpu.Serial, code xid.Code, page int32) console.Event {
		e := console.Event{Time: at.Add(time.Duration(sec) * time.Second), Node: node, Serial: serial, Code: code, Page: page, Job: 7}
		if code == xid.DoubleBitError {
			e.StructureValid, e.Structure = true, gpu.DeviceMemory
		}
		return e
	}
	log := encodeLog(t, []console.Event{
		mk(0, 9001, xid.GraphicsEngineException, console.NoPage),
		mk(10, 9001, xid.DoubleBitError, 100),       // retires page 100 (DBE rule)
		mk(20, 9000, xid.ECCPageRetirementAlt, 200), // a second, lower-serial card: two-SBE retirement
		mk(30, 9000, xid.GraphicsEngineException, console.NoPage),
		mk(40, 9001, xid.GraphicsEngineException, console.NoPage),
	})
	s := testServer(t, DefaultConfig())
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(log)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest status = %d", rec.Code)
	}
	quiesce(t, s)

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nodes/"+topology.CNameOf(node), nil))
	want, err := os.ReadFile("testdata/node_view.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("/nodes/%s:\n%s\nwant the parent build's bytes:\n%s", topology.CNameOf(node), got, want)
	}
}

// shapedBatches renders n batches of 1,024 benchmark-shaped lines: the
// one-month sim log over and over with each copy's clock moved on a
// month, so time stays monotone across the seams and compaction ages the
// stream out the way it does titanbench's history corpus.
func shapedBatches(t testing.TB, n int) [][]byte {
	t.Helper()
	month := simEvents()
	events := make([]console.Event, 0, n*1024)
	for k := 0; len(events) < cap(events); k++ {
		for _, ev := range month[:min(len(month), cap(events)-len(events))] {
			ev.Time = ev.Time.Add(time.Duration(k) * 30 * 24 * time.Hour)
			events = append(events, ev)
		}
	}
	return chunkLog(encodeLog(t, events), 1024)
}

// writePathServer is the benchmark's daemon shape — journal on,
// compaction at the default age — with the compactor idle so the test
// decides when a pass runs.
func writePathServer(t testing.TB) *Server {
	t.Helper()
	cfg := crashConfig(t.TempDir(), FsyncOff)
	cfg.CompactAge = 10 * time.Minute
	s := testServer(t, cfg)
	if _, err := s.WarmStart(filepath.Dir(cfg.CompactDir)); err != nil {
		t.Fatal(err)
	}
	return s
}

// ingestAll posts batches straight at the handler, compacting after
// every sixteenth so the retained log cycles as it does under load.
func ingestAll(t testing.TB, s *Server, batches [][]byte) {
	t.Helper()
	h := s.Handler()
	for i, b := range batches {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("batch %d: ingest status %d", i, rec.Code)
		}
		if i%16 == 15 {
			quiesce(t, s)
			if _, err := s.CompactNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	quiesce(t, s)
}

// TestIngestAllocsPerLine bounds what the daemon allocates to ingest one
// line in steady state — every node already tracked, compaction cycling
// the retained log, the journal on. It once read ~1,160 B a line
// (io.ReadAll doubling up to every body, the retained log doubling back
// up after every compaction, two event slices a batch), then ~290 with
// those buffers recycled; with the seal path's builder, its columns and
// the marshalled segment recycled too, and the journal's records framed
// in a pooled buffer sized from the body, it read ~187 (80 of it the
// retained log's survivor copy, 80 the sealed segment's per-node
// dictionary map, built once to marshal and once at the re-map); with the
// dictionaries one flat card table — the builder's recycled, the
// re-map's two slices — it reads ~105, and the ceiling is that plus a
// tenth. Four times the batches must read the same figure: nothing on
// the write path may grow with the stream but the history itself. Each
// figure is the least of three windows: a sync.Pool hands a buffer put
// on one P to a getter on another only some of the time, so how many
// ~130 KB frame buffers a window re-makes is the scheduler's to say — up
// to 30 B a line, which only ever adds.
func TestIngestAllocsPerLine(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime's own bookkeeping moves allocation figures")
	}
	const warm = 48 // a month is 34 batches: every node and card is tracked before the clock starts
	perLine := func(n int) float64 {
		batches := shapedBatches(t, warm+n)
		least := math.Inf(1)
		for i := 0; i < 3; i++ {
			s := writePathServer(t)
			ingestAll(t, s, batches[:warm])
			runtime.GC() // a cycle inside the window empties the pools once more
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ingestAll(t, s, batches[warm:])
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(n*1024))
		}
		return least
	}
	short, long := perLine(64), perLine(256)
	t.Logf("allocated per line: %.0f B over 64 batches, %.0f B over 256", short, long)
	if short > 116 || long > 116 {
		t.Errorf("steady-state ingest allocates %.0f / %.0f B per line, want <= 116", short, long)
	}
	if long > short*1.1 || long < short*0.9 {
		t.Errorf("allocation per line moves with the stream's length: %.0f B over 64 batches, %.0f B over 256", short, long)
	}
}

// TestRetainedLogDoesNotRegrow: the survivor copy a compaction leaves
// has the room the log needed since the pass before, so once the cycle
// has run twice further batches append without a single growslice of the
// retained log. (At the parent the survivor was exactly full and the
// first append after every pass doubled it.)
func TestRetainedLogDoesNotRegrow(t *testing.T) {
	retainedCap := func(s *Server) int {
		s.stateMu.Lock()
		defer s.stateMu.Unlock()
		return cap(s.events)
	}
	batches := shapedBatches(t, 40)
	s := writePathServer(t)
	ingestAll(t, s, batches[:32]) // two passes of sixteen batches
	if got := s.StatsNow().Compactions; got != 2 {
		t.Fatalf("%d compactions after 32 batches, want 2", got)
	}
	before := retainedCap(s)
	ingestAll(t, s, batches[32:]) // eight more: half of what each pass sealed
	if after := retainedCap(s); after != before {
		t.Fatalf("retained log regrew under steady ingest: cap %d -> %d", before, after)
	}
	if st := s.StatsNow(); st.RetainedEvents <= 8*1024-100 {
		t.Fatalf("retained %d events; the eight batches did not land in the log", st.RetainedEvents)
	}
}

// TestIngestStageCounters: the write path has six stages, in pipeline
// order; every stopwatch moves under ingest (seal once a compaction pass
// has run), on /stats as the gather reports it, and none of them moves
// under a query.
func TestIngestStageCounters(t *testing.T) {
	s := writePathServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, b := range shapedBatches(t, 4) {
		resp, err := http.Post(ts.URL+"/ingest", "text/plain", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %s", resp.Status)
		}
	}
	quiesce(t, s)
	if n, err := s.CompactNow(); err != nil || n == 0 {
		t.Fatalf("compaction sealed %d (%v)", n, err)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	stages := reflect.ValueOf(st.IngestStageSeconds)
	var names []string
	for i := 0; i < stages.NumField(); i++ {
		names = append(names, stages.Type().Field(i).Tag.Get("json"))
		if stages.Field(i).Float() <= 0 {
			t.Errorf("stage %s did not move under ingest", names[i])
		}
	}
	if want := []string{"body_read", "decode", "queue_wait", "journal", "apply", "seal"}; !slices.Equal(names, want) {
		t.Errorf("stages %v, want %v", names, want)
	}
	getBody(t, queryURL(ts.URL, "* | by code | bucket 1h"))
	getBody(t, ts.URL+"/rollup?by=code&bucket=24h")
	var after Stats
	getJSON(t, ts.URL+"/stats", &after)
	if after.IngestStageSeconds != st.IngestStageSeconds {
		t.Errorf("a query moved the ingest stages: %+v -> %+v", st.IngestStageSeconds, after.IngestStageSeconds)
	}
	if after.Queries != st.Queries+1 || after.QueryRollup != st.QueryRollup+1 {
		t.Errorf("the queries were not served: %d /query, %d /rollup", after.Queries-st.Queries, after.QueryRollup-st.QueryRollup)
	}
}

// BenchmarkWritePath is the write path in process, the figure that leads
// where bench/'s 45-second backfill pairs confirm (ROADMAP house rule
// (a)): 64 batches of 1,024 benchmark-shaped lines through the handler to
// applied — body read, decode, hand-off, journal, apply, a compaction
// pass after every sixteenth — on a fresh journaled daemon each
// iteration, with no socket and no load generator in the way. Run it as
//
//	go test ./internal/serve -run '^$' -bench WritePath -cpu 1 -count 6
//
// The loop counts b.N itself: written with b.Loop, and the timer stopped
// around each fresh daemon, the go1.24 run above did not finish.
func BenchmarkWritePath(b *testing.B) {
	batches := shapedBatches(b, 64)
	var before, after runtime.MemStats
	var allocated, mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := writePathServer(b)
		runtime.ReadMemStats(&before)
		b.StartTimer()
		ingestAll(b, s, batches)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
		shutdownBench(b, s) // the final seal is not the write path's
		b.StartTimer()
	}
	lines := float64(b.N * len(batches) * 1024)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/lines, "ns/line")
	b.ReportMetric(float64(allocated)/lines, "B/line")
	b.ReportMetric(float64(mallocs)/lines, "allocs/line")
}

// countingReader reports how often the handler read the body.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestIngestBodyLengths: a declared length is checked before the body is
// read and is never trusted for memory; the body's real length is still
// bounded, and a body without one still works.
func TestIngestBodyLengths(t *testing.T) {
	cfg := DefaultConfig()
	limit := int(cfg.MaxBodyBytes)
	line := encodeLog(t, simEvents()[:1])
	s := testServer(t, cfg)
	for _, tc := range []struct {
		name     string
		declared int64
		body     []byte
		status   int
		text     string
		reads    bool // whether the handler may touch the body at all
	}{
		{"declared over the limit", int64(limit) + 1, line, http.StatusRequestEntityTooLarge, "body over limit\n", false},
		{"declares the limit, sends one line", int64(limit), line, http.StatusAccepted, "", true},
		{"longer than declared", int64(len(line)), bytes.Repeat(line, limit/len(line)+1), http.StatusRequestEntityTooLarge, "body over limit\n", true},
		{"no declared length", -1, line, http.StatusAccepted, "", true},
		{"declared right", int64(len(line)), line, http.StatusAccepted, "", true},
		{"empty", 0, nil, http.StatusBadRequest, "empty batch\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &countingReader{r: bytes.NewReader(tc.body)}
			req := httptest.NewRequest(http.MethodPost, "/ingest", body)
			req.ContentLength = tc.declared
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Handler().ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code != tc.status || rec.Body.String() != tc.text {
				t.Errorf("answered %d %q, want %d %q", rec.Code, rec.Body.String(), tc.status, tc.text)
			}
			if !tc.reads && body.reads != 0 {
				t.Errorf("read the body %d times before refusing it", body.reads)
			}
			// Whatever was declared, memory follows what was sent (doubling
			// up to it costs at most four times over) plus at most the
			// presize, which stops at the pool cap. The race runtime
			// allocates on its own account, so the figure is held without it.
			if got, most := after.TotalAlloc-before.TotalAlloc, uint64(4*len(tc.body)+4<<20); !race.Enabled && got > most {
				t.Errorf("allocated %d B for a %d B body declared as %d", got, len(tc.body), tc.declared)
			}
		})
	}
	quiesce(t, s)
	if st := s.StatsNow(); st.BatchesAccepted != 3 || st.BatchesRejected != 3 || st.EventsApplied != 3 {
		t.Errorf("accepted %d, rejected %d, applied %d; want 3, 3, 3", st.BatchesAccepted, st.BatchesRejected, st.EventsApplied)
	}
}

// TestPooledBuffersDoNotAlias: four senders post batches of 1 to 4,096
// lines at once — every other one router-tagged, so the index and
// sequence pools cycle too — and scribble over each body once it is
// acknowledged. Every batch must come out of the pipeline whole (a body
// or event slice handed back too early, or handed to two owners, tears
// one), and the daemon must end where a fresh one fed the same batches
// one at a time in the same order ends: counters, every node view, the
// alert stream, the feed and the full arrival-order history. The journal
// is on and the applier held still until half the batches are
// acknowledged, so a batch's framed records wait in the queue while later
// requests decode into the same pool: what reaches the journal must be
// the history's own records, each whole.
func TestPooledBuffersDoNotAlias(t *testing.T) {
	events := append([]console.Event(nil), simEvents()...)
	for i := range events {
		events[i].Job = console.JobID(i + 1) // every line its own, so a batch is known by its first
	}
	type sentBatch struct {
		body   []byte
		base   uint64 // global sequence of its first line
		tagged bool
		events []console.Event
	}
	var batches []sentBatch
	byFirstJob := map[console.JobID]int{}
	sizes := []int{1, 4096, 2, 300, 1024, 3, 64, 2048, 7, 512, 17, 128}
	for lo := 0; lo < len(events); {
		hi := min(lo+sizes[len(batches)%len(sizes)], len(events))
		byFirstJob[events[lo].Job] = len(batches)
		batches = append(batches, sentBatch{body: encodeLog(t, events[lo:hi]), base: uint64(lo), tagged: len(batches)%2 == 1, events: events[lo:hi]})
		lo = hi
	}
	post := func(url string, b sentBatch, body []byte) error {
		for {
			req, err := http.NewRequest(http.MethodPost, url+"/ingest", bytes.NewReader(body))
			if err != nil {
				return err
			}
			if b.tagged {
				mask := make([]uint64, (len(b.events)+63)/64)
				for i := range b.events {
					mask[i/64] |= 1 << (i % 64)
				}
				req.Header.Set(SeqBaseHeader, strconv.FormatUint(b.base, 10))
				req.Header.Set(SeqMaskHeader, base64.StdEncoding.EncodeToString(console.MaskBytes(mask)))
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				return nil
			case http.StatusTooManyRequests:
				time.Sleep(time.Millisecond)
			default:
				return fmt.Errorf("POST /ingest: %s", resp.Status)
			}
		}
	}

	got := writePathServer(t)
	gotTS := httptest.NewServer(got.Handler())
	defer gotTS.Close()
	gate := make(chan struct{})
	got.StallForTest(gate)
	var acked atomic.Int64
	var wg sync.WaitGroup
	for sender := 0; sender < 4; sender++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			var scratch []byte
			for i := sender; i < len(batches); i += 4 {
				scratch = append(scratch[:0], batches[i].body...)
				if err := post(gotTS.URL, batches[i], scratch); err != nil {
					t.Error(err)
					return
				}
				if acked.Add(1) == int64(len(batches)/2) {
					close(gate)
				}
				for j := range scratch {
					scratch[j] = 'X'
				}
			}
		}(sender)
	}
	wg.Wait()
	if t.Failed() {
		close(gate) // a sender gave up before the half-way mark
		return
	}
	quiesce(t, got)

	// The applied history is the sent batches, each whole, in the order
	// admission gave them; that order is what the reference is fed.
	history := retained(got)
	var order []int
	for at := 0; at < len(history); {
		i, ok := byFirstJob[history[at].Job]
		if !ok || at+len(batches[i].events) > len(history) {
			t.Fatalf("history[%d] (job %d) does not start a sent batch", at, history[at].Job)
		}
		// The log carries whole seconds; the decoded event is what a
		// fresh decode of the pristine body gives.
		want, _ := console.NewCorrelator().ParseBytes(batches[i].body, 1)
		if !slices.Equal(history[at:at+len(want)], want) {
			t.Fatalf("batch %d (%d lines) came through the pipeline torn", i, len(want))
		}
		order = append(order, i)
		at += len(want)
	}
	if len(order) != len(batches) {
		t.Fatalf("%d batches in the history, %d sent", len(order), len(batches))
	}

	want := writePathServer(t)
	wantTS := httptest.NewServer(want.Handler())
	defer wantTS.Close()
	for _, i := range order {
		if err := post(wantTS.URL, batches[i], batches[i].body); err != nil {
			t.Fatal(err)
		}
		quiesce(t, want)
	}

	if !slices.Equal(retained(want), history) {
		t.Error("arrival-order histories differ")
	}
	if g, w := fmt.Sprint(got.AlertTexts()), fmt.Sprint(want.AlertTexts()); g != w {
		t.Error("alert streams differ")
	}
	if g, w := getBody(t, gotTS.URL+"/alertfeed"), getBody(t, wantTS.URL+"/alertfeed"); !bytes.Equal(g, w) {
		t.Error("/alertfeed documents differ")
	}
	gs, ws := got.StatsNow(), want.StatsNow()
	for _, st := range []*Stats{&gs, &ws} { // what no two runs share
		st.UptimeSeconds, st.HeapInuseBytes, st.IngestStageSeconds = 0, 0, StageSeconds{}
		st.QueryRenderBytes, st.QueryRenderSeconds = 0, 0
		st.WarmOpenSeconds, st.WarmCheckpointSeconds, st.WarmSegmentReplaySeconds, st.WarmJournalReplaySeconds = 0, 0, 0, 0
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("/stats differ:\n%+v\n%+v", gs, ws)
	}
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("node tables of %d and %d entries", len(got.nodes), len(want.nodes))
	}
	for i := range got.nodes {
		n, g, w := topology.NodeID(i), &got.nodes[i], &want.nodes[i]
		if g.total != w.total || g.total > 0 && !reflect.DeepEqual(viewOf(n, g, time.Hour), viewOf(n, w, time.Hour)) {
			t.Fatalf("node %s: views differ", topology.CNameOf(n))
		}
	}

	// Last, because the sync it takes shows in /stats.
	if err := got.journal.Load().Sync(); err != nil {
		t.Fatal(err)
	}
	if g, w := journalRecords(t, got.cfg.JournalDir), wantFrames(history); !bytes.Equal(g, w) {
		t.Errorf("the journal's records are not the history's: first difference at byte %d of %d", firstDiff(g, w), len(w))
	}
}
