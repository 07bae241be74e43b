package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"titanre/internal/race"
	"titanre/internal/serve"
	"titanre/internal/store"
	"titanre/internal/titanql"
)

// clusterReadPaths are the read endpoints whose merged cluster
// responses must be byte-identical to a single daemon's.
var clusterReadPaths = []string{
	"/alerts",
	"/rollup?by=code,cabinet&bucket=6h",
	"/rollup?by=code&bucket=1h&code=sbe",
	"/top?by=node&k=15",
	"/top?by=serial&k=10&code=sbe",
	echoRollupPath,
	// A glob the replicas take from the URL as it stands: the router
	// forwards parameters, it does not re-spell them as a query.
	"/top?" + url.Values{"cabinet": {"c[!3]-*"}, "k": {"5"}}.Encode(),
	whereTopPath,
	whereTopQuery,
	"/query?" + url.Values{"q": {"code=48 cabinet=c3-* | by cage | bucket 6h | top 5"}}.Encode(),
	"/query?" + url.Values{"q": {"* | by code | bucket 1d"}}.Encode(),
	"/query?" + url.Values{"q": {"code=sbe | top serial 5"}}.Encode(),
	// A rank bound far past the key count: every key comes back, "k"
	// echoed as asked. The parent commit sized its cards by k and died
	// out of memory — router and replicas both — on either request.
	"/top?by=code&k=1099511627776",
	"/query?" + url.Values{"q": {"* | top node 1099511627776"}}.Encode(),
}

// One offender ranking under a location filter, asked both ways: /top
// once ignored ?cabinet= / ?cage= / ?node= and answered fleet-wide.
var (
	whereTopPath  = "/top?by=node&k=10&cabinet=c3-*"
	whereTopQuery = "/query?" + url.Values{"q": {"cabinet=c3-* | top node 10"}}.Encode()
)

// echoRollupPath is a bare rollup with a ?code=: the merged document must
// carry the "code" echo, which no partial does — the router adds it where
// it unwraps the merge, as titand does where it unwraps its fold.
const echoRollupPath = "/rollup?code=48&by=cage"

// checkMergedReads asserts, on a fleet whose merged reads check already
// found byte-identical to the single daemon's, that the ?code= echo
// survives the merge and that the filtered /top is the top document of
// the same ranking asked through /query.
func checkMergedReads(t testing.TB, router http.Handler) {
	t.Helper()
	read := func(path string) []byte {
		body, _ := get(t, router, path)
		return body
	}
	var roll store.RollupDoc
	if err := json.Unmarshal(read(echoRollupPath), &roll); err != nil || roll.Code != "XID 48" || roll.TotalEvents == 0 {
		t.Fatalf("%s: code echo %q over %d events (%v), want XID 48 over some", echoRollupPath, roll.Code, roll.TotalEvents, err)
	}
	var doc titanql.Doc
	if err := json.Unmarshal(read(whereTopQuery), &doc); err != nil || doc.Top == nil {
		t.Fatalf("%s: no top document (%v)", whereTopQuery, err)
	}
	if doc.Top.TotalEvents == 0 || len(doc.Top.Cards) == 0 {
		t.Fatalf("%s ranks nothing; the filter check needs rows", whereTopQuery)
	}
	for _, card := range doc.Top.Cards {
		if !strings.HasPrefix(card.Node, "c3-") {
			t.Fatalf("%s ranks %s, outside the filter", whereTopQuery, card.Node)
		}
	}
	if got, want := read(whereTopPath), doc.Top.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s is not the top document of %s:\n/top:   %.300s\n/query: %.300s", whereTopPath, whereTopQuery, got, want)
	}
}

// TestClusterEquivalence is the tentpole gate, the empty schedule: a
// month of simulated console history streamed through a 4-replica cluster
// produces merged /alerts, /rollup, /top and /query responses
// byte-identical to one uninterrupted daemon fed the same stream.
func TestClusterEquivalence(t *testing.T) {
	f, r := mustPass(t, "equivalence", schedule{replicas: 4, lines: len(clusterSim())})
	if r.books.shed != 0 || r.books.failed != 0 {
		t.Fatalf("lossless stream shed %d / failed %d lines", r.books.shed, r.books.failed)
	}
	// Every replica really owns a share of the stream — the merge is
	// combining real partitions, not one loaded replica plus idlers.
	for _, m := range f.members {
		if st := m.srv.StatsNow(); st.EventsApplied == 0 {
			t.Fatalf("replica %d applied no events; the hash split sent it nothing", m.idx)
		}
	}
	if body, _ := get(t, f.rt.Handler(), "/alerts"); len(bytes.TrimSpace(body)) <= len("[]") {
		t.Fatal("merged /alerts is empty; the equivalence check needs a real alert stream")
	}
	checkMergedReads(t, f.rt.Handler())
	// check already refused a degraded merged alert stream: every replica's
	// feed was complete.
}

// TestClusterDrainRestart is one fixed schedule: the month streams
// through the router while replica 0 drains, snapshots, refuses two
// deliveries and restarts warm from the snapshot. The router absorbs the
// outage with delivery retries; afterwards every merged read is still
// byte-identical to an uninterrupted single daemon.
func TestClusterDrainRestart(t *testing.T) {
	f, r := mustPass(t, "drain-restart", schedule{replicas: 2, lines: len(clusterSim()),
		faults: []fault{{restart, 0, 16, 2}}})
	if r.replays == 0 {
		t.Fatal("restarted replica replayed nothing; drain snapshot missing")
	}
	if r.books.shed != 0 || r.books.failed != 0 {
		t.Fatalf("lossless stream shed %d / failed %d lines", r.books.shed, r.books.failed)
	}
	if r.retries == 0 {
		t.Fatal("no delivery retries; the drain window was never exercised")
	}
	checkMergedReads(t, f.rt.Handler())
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

// TestRouterIngestBodyLengths is serve's TestIngestBodyLengths pointed at
// the router, which reads /ingest through the same serve.ReadBody: a
// declared length is checked before the body is read and is never
// trusted for memory; the body's real length is still bounded, and a
// body without one still works.
func TestRouterIngestBodyLengths(t *testing.T) {
	f := newFleet(t, serve.DefaultConfig())
	rt, replica := f.rt, f.members[0]
	limit := int(rt.cfg.MaxBodyBytes)
	line := encodeLog(t, clusterSim()[:1])
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
			rt.Handler().ServeHTTP(rec, req)
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
	replica.quiesce(t)
	if st := rt.StatsNow(); st.BatchesAccepted != 3 || st.BatchesRejected != 3 || replica.srv.StatsNow().EventsApplied != 3 {
		t.Errorf("accepted %d, rejected %d, applied %d; want 3, 3, 3", st.BatchesAccepted, st.BatchesRejected, replica.srv.StatsNow().EventsApplied)
	}
}

// TestSourceIsolation overloads the cluster from a flooding source
// while a healthy source streams beside it: the flooder sheds against
// its own queue share, the healthy feed loses nothing, and the
// router's per-source books agree with each client's own account
// exactly — offered == accepted + shed + failed, line for line.
func TestSourceIsolation(t *testing.T) {
	events := clusterSim()
	healthyLog := encodeLog(t, events[:8000])
	floodLog := encodeLog(t, events[8000:24000])

	cfg := serve.DefaultConfig()
	cfg.QueueDepth = 2 // tiny admission queue: the stall backs up fast
	f := newFleet(t, cfg, cfg)
	gate := make(chan struct{})
	for _, m := range f.members {
		m.srv.StallForTest(gate)
	}
	f.newRouter(Config{SourceShareLines: 1500})
	rt := f.rt
	// The senders are serve.StreamLog's, which speaks HTTP: the router gets
	// a socket, the replicas stay on the in-memory wire.
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	stream := func(log []byte, opt serve.StreamOptions) *serve.StreamStats {
		stats, err := serve.StreamLog(context.Background(), front.URL, bytes.NewReader(log), opt)
		if err != nil {
			t.Errorf("stream: %v", err)
		}
		return stats
	}

	// Hold the replicas stalled long enough that deliveries pile up in
	// the router and the flooder's share fills, then release.
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(gate)
	}()

	var wg sync.WaitGroup
	var healthy, flood *serve.StreamStats
	wg.Add(2)
	go func() {
		defer wg.Done()
		// 2 senders x 512 lines = 1024 in flight at most, under the
		// 1500-line share: never shed.
		healthy = stream(healthyLog,
			serve.StreamOptions{Concurrency: 2, BatchLines: 512, Source: "healthy"})
	}()
	go func() {
		defer wg.Done()
		// 8 senders x 1024 lines = up to 8192 in flight against the same
		// 1500-line share: sheds whenever two batches overlap.
		flood = stream(floodLog,
			serve.StreamOptions{Concurrency: 8, BatchLines: 1024, Source: "flood"})
	}()
	wg.Wait()
	for _, m := range f.members {
		m.quiesce(t)
	}

	if healthy.LinesShed != 0 || healthy.LinesFailed != 0 {
		t.Fatalf("healthy source shed %d / failed %d of %d lines; isolation leaked",
			healthy.LinesShed, healthy.LinesFailed, healthy.LinesRead)
	}
	if flood.LinesShed == 0 {
		t.Fatal("flooding source never shed; the overload never bit")
	}

	st := rt.StatsNow()
	for name, client := range map[string]*serve.StreamStats{"healthy": healthy, "flood": flood} {
		got, ok := st.Sources[name]
		if !ok {
			t.Fatalf("router has no books for source %q", name)
		}
		if got.OfferedLines != got.AcceptedLines+got.ShedLines+got.FailedLines {
			t.Fatalf("source %q books don't balance: %+v", name, got)
		}
		if got.OfferedLines != client.LinesRead ||
			got.AcceptedLines != client.LinesAccepted ||
			got.ShedLines != client.LinesShed ||
			got.FailedLines != client.LinesFailed {
			t.Fatalf("source %q: router books %d/%d/%d/%d (offered/accepted/shed/failed), client saw %d/%d/%d/%d",
				name, got.OfferedLines, got.AcceptedLines, got.ShedLines, got.FailedLines,
				client.LinesRead, client.LinesAccepted, client.LinesShed, client.LinesFailed)
		}
		if got.OfferedBatches != got.AcceptedBatches+got.ShedBatches+got.FailedBatches {
			t.Fatalf("source %q batch books don't balance: %+v", name, got)
		}
		if got.InflightLines != 0 {
			t.Fatalf("source %q still shows %d in-flight lines after the run", name, got.InflightLines)
		}
	}

	// The exact books surface on /metrics too.
	metrics, _ := get(t, rt.Handler(), "/metrics")
	for _, want := range []string{
		fmt.Sprintf(`titanrouter_source_lines_shed_total{source="flood"} %d`, flood.LinesShed),
		`titanrouter_source_lines_shed_total{source="healthy"} 0`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestSourceCap: the source name is client-supplied. 10,000 distinct
// names must leave a bounded source table with books that still close
// exactly, and a flooder that rotates its name on every batch must be
// shed like one that keeps it — past the cap every new name shares the
// overflow record's single in-flight share.
func TestSourceCap(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.QueueDepth = 1
	// This replica keeps a socket: with one slot, a wire with no latency has
	// eight senders find it taken (429, a tenth of a second's backoff) nearly
	// every time, and phase 1 takes minutes.
	replica := serve.NewServer(cfg)
	back := httptest.NewServer(replica.Handler())
	t.Cleanup(func() {
		back.Close()
		if err := replica.Shutdown(context.Background()); err != nil {
			t.Errorf("replica shutdown: %v", err)
		}
	})
	rt, err := New(Config{Replicas: []string{back.URL}, SourceShareLines: 1500})
	if err != nil {
		t.Fatal(err)
	}
	events := clusterSim()
	post := func(source string, body []byte) int {
		req, err := http.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		req.Header.Set(serve.SourceHeader, source)
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		return rec.Code
	}

	// Phase 1: 10,000 one-line batches, each under its own name.
	const names, senders = 10000, 8
	line := encodeLog(t, events[:1])
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < names; i += senders {
				if code := post(fmt.Sprintf("feed-%d", i), line); code != http.StatusAccepted {
					t.Errorf("feed-%d: status %d", i, code)
				}
			}
		}(w)
	}
	wg.Wait()
	st := rt.StatsNow()
	if len(st.Sources) > serve.MaxSources+1 {
		t.Fatalf("%d distinct names left %d source records; cap is %d plus the overflow record", names, len(st.Sources), serve.MaxSources)
	}
	var offered uint64
	for name, got := range st.Sources {
		if got.OfferedLines != got.AcceptedLines+got.ShedLines+got.FailedLines {
			t.Fatalf("source %q books don't balance: %+v", name, got)
		}
		offered += got.OfferedLines
	}
	if offered != names || st.LinesOffered != names {
		t.Fatalf("per-source books total %d offered lines, router total %d, sent %d", offered, st.LinesOffered, names)
	}
	metrics, _ := get(t, rt.Handler(), "/metrics")
	if n := bytes.Count(metrics, []byte("titanrouter_source_lines_offered_total{")); n > serve.MaxSources+1 {
		t.Fatalf("/metrics carries %d per-source series, cap is %d", n, serve.MaxSources+1)
	}

	// Phase 2: stall the replica so deliveries pile up in the router,
	// then flood with a fresh name per batch. The replica takes one
	// batch (its only slot); the second stays in flight, and from then
	// on every other batch must be shed against the shared overflow
	// share instead of being handed a share of its own.
	gate := make(chan struct{})
	replica.StallForTest(gate)
	flood := encodeLog(t, events[:1024])
	var shed atomic.Int64
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch code := post(fmt.Sprintf("rotating-%d-%d", w, i), flood); code {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					t.Errorf("rotating-%d-%d: status %d", w, i, code)
				}
			}
		}(w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.StatsNow().BatchesShed == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(gate) // release the in-flight deliveries whatever the verdict
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("a flooder rotating its source name was never shed")
	}
	got := rt.StatsNow().Sources[serve.OverflowSource]
	if got.ShedBatches != uint64(shed.Load()) || got.OfferedLines != got.AcceptedLines+got.ShedLines+got.FailedLines || got.InflightLines != 0 {
		t.Fatalf("overflow books after the flood (client saw %d shed batches): %+v", shed.Load(), got)
	}
}

// TestMergedReadTimeout: a replica that takes a read and never answers
// holds a merged read no longer than ReadTimeout — the router answers 502
// in well under a second. The request carries its own two-second
// deadline, so a router that ignores ReadTimeout fails here instead of
// hanging.
func TestMergedReadTimeout(t *testing.T) {
	replica := serve.NewServer(serve.DefaultConfig())
	live := httptest.NewServer(replica.Handler())
	defer live.Close()
	stop := make(chan struct{})
	stopped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stop:
		case <-r.Context().Done():
		}
	}))
	defer stopped.Close()
	defer close(stop)
	rt, err := New(Config{Replicas: []string{live.URL, stopped.URL}, ReadTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rec := httptest.NewRecorder()
	start := time.Now()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rollup?by=code&bucket=1h", nil).WithContext(ctx))
	if took := time.Since(start); rec.Code != http.StatusBadGateway || took >= time.Second {
		t.Fatalf("merged /rollup with a stopped replica answered %d after %v; want 502 within 1s (ReadTimeout 200ms)", rec.Code, took)
	}
}
