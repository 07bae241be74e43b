//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"titanre/internal/alert"
	"titanre/internal/console"
	"titanre/internal/core"
	"titanre/internal/dataset"
	"titanre/internal/ingest"
	"titanre/internal/router"
	"titanre/internal/serve"
	"titanre/internal/sim"
	"titanre/internal/store"
	"titanre/internal/titanql"
	"titanre/internal/xid"
)

// The traced run. In one process, on the bench's own goroutine, it calls
// each layer's public functions in pipeline order with a span around
// every call, and derives the per-layer metrics from span self times and
// the counts taken at the same boundaries. A few figures only a real
// process can give (child CPU, ack latency, the router in front of stub
// replicas) come from short untraced child runs at the end.
//
// Each per-layer metric names the end-to-end metric it should move and
// where; the table is in README.md and summarised beside each spec here.

var perLayerSpecs = []metricSpec{
	// -> cpu_us_per_unit, throughput_per_s @ backfill/fleet_backfill; latency @ batch_report; none @ query_sealed
	{Name: "console.decode_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "console.decode_allocs_per_line", Unit: "count", Better: "lower"},
	{Name: "console.fast_fallbacks", Unit: "count", Better: "lower"},
	// -> cpu_us_per_unit @ backfill (the journal rendering)
	{Name: "console.encode_ns_per_event", Unit: "ns", Better: "lower"},
	// -> cpu_us_per_unit @ fleet_backfill only
	{Name: "console.split_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "console.mask_ns_per_line", Unit: "ns", Better: "lower"},
	// -> throughput_per_s @ backfill (the applier is one goroutine); latency @ live_mixed
	{Name: "alert.feed_ns_per_event", Unit: "ns", Better: "lower"},
	// -> cpu_us_per_unit @ backfill
	{Name: "serve.journal_append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "serve.journal_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "serve.journal_syncs", Unit: "count", Better: "lower"},
	// explain throughput_per_s, peak_rss_mb @ backfill; latency_p50_ms @ live_mixed
	{Name: "serve.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batches_429", Unit: "count", Better: "lower"},
	{Name: "serve.compactions", Unit: "count", Better: "lower"},
	{Name: "serve.sealed_fraction_at_quiesce", Unit: "ratio", Better: "higher"},
	// -> latency_p50_ms @ backfill (restart)
	{Name: "serve.shutdown_s", Unit: "s", Better: "lower"},
	{Name: "serve.warmstart_s", Unit: "s", Better: "lower"},
	// -> throughput_per_s and the printed point_query_p50_ms @ query_sealed
	{Name: "serve.query_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.q.top_node_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.q.rollup_code_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.q.plan_cabinet_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.q.node_state_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.q.node_history_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.q.code_history_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.q.plan_selective_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.q.plan_pruned_p50_ms", Unit: "ms", Better: "lower"},
	// attributed + unattributed == ingest_cpu: what timing from outside cannot split
	{Name: "serve.ingest_cpu_us_per_line", Unit: "us", Better: "lower"},
	{Name: "serve.attributed_us_per_line", Unit: "us", Better: "lower"},
	{Name: "serve.unattributed_us_per_line", Unit: "us", Better: "lower"},
	// -> latency_p50_ms @ fleet_backfill
	{Name: "serve.alert_replay_ms", Unit: "ms", Better: "lower"},
	// -> cpu_us_per_unit @ backfill; latency_p50_ms @ live_mixed
	{Name: "store.append_seal_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "store.commit_ms_per_segment", Unit: "ms", Better: "lower"},
	{Name: "store.disk_bytes_per_event", Unit: "B", Better: "lower"},
	// -> latency_p50_ms @ backfill (restart)
	{Name: "store.open_mapped_ns_per_event", Unit: "ns", Better: "lower"},
	// -> latency_p50_ms (/top), throughput_per_s @ query_sealed; none @ backfill
	{Name: "store.rollup_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "store.top_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "store.rollup_allocs_per_query", Unit: "count", Better: "lower"},
	// -> throughput_per_s and the printed point_query_p50_ms @ query_sealed
	{Name: "store.count_where_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "store.scan_node_us", Unit: "us", Better: "lower"},
	{Name: "titanql.parse_us", Unit: "us", Better: "lower"},
	{Name: "titanql.run_ms.selective", Unit: "ms", Better: "lower"},
	{Name: "titanql.run_ms.unselective", Unit: "ms", Better: "lower"},
	{Name: "titanql.run_ms.pruned", Unit: "ms", Better: "lower"},
	// -> throughput_per_s @ live_mixed, where the unsealed tail exists
	{Name: "titanql.tail_fold_ns_per_event", Unit: "ns", Better: "lower"},
	// -> latency_p50_ms @ fleet_backfill
	{Name: "titanql.merge_us", Unit: "us", Better: "lower"},
	// -> cpu_us_per_unit @ fleet_backfill
	{Name: "router.stub_cpu_us_per_line", Unit: "us", Better: "lower"},
	{Name: "router.stub_lines_per_s", Unit: "1/s", Better: "higher"},
	{Name: "router.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "router.replica_cpu_us_per_line", Unit: "us", Better: "lower"},
	{Name: "router.sub_batches_per_batch", Unit: "ratio", Better: "lower"},
	{Name: "router.deliver_retries", Unit: "count", Better: "lower"},
	{Name: "router.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "router.ingest_us_per_line", Unit: "us", Better: "lower"},
	{Name: "router.merged.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "router.merged.rollup_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "router.merged.top_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "router.merged.alerts_p50_ms", Unit: "ms", Better: "lower"},
	// -> setup_s
	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "dataset.write_s", Unit: "s", Better: "lower"},
	// -> latency_p50_ms @ batch_report; none anywhere else
	{Name: "dataset.load_flat_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.load_store_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.load_allocs", Unit: "count", Better: "lower"},
	{Name: "core.index_ms", Unit: "ms", Better: "lower"},
	{Name: "core.report_render_ms", Unit: "ms", Better: "lower"},
	{Name: "core.observations_ms", Unit: "ms", Better: "lower"},
	// the measuring stick itself
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// mallocs is the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ingestCounts are the counters one ingest replay takes at its layer
// boundaries.
type ingestCounts struct {
	Lines, Fallbacks int
	WallNs           int64
	JournalBytes     int64
	JournalSyncs     uint64
	DiskBytes        int64
}

// replayIngest pushes the corpus through the write path one layer call
// at a time, in the order the daemon's pipeline makes them: decode a
// batch, feed the alert engine, render and journal every event, commit
// the batch, append to the segment builder, and seal + commit + publish
// a segment each time the builder fills. tr may be nil.
func replayIngest(tr *tracer, c *corpus, dir string) (ingestCounts, error) {
	var n ingestCounts
	cor := console.NewCorrelator()
	eng := alert.NewEngine(alert.DefaultConfig())
	j, _, err := serve.OpenJournal(serve.JournalConfig{Dir: filepath.Join(dir, "journal"), Fsync: serve.FsyncInterval}, 0,
		func([]byte) error { return nil })
	if err != nil {
		return n, err
	}
	defer j.Close()
	st, _, err := store.OpenDir(filepath.Join(dir, dataset.SegmentsDir), store.OpenOptions{Mapped: true})
	if err != nil {
		return n, err
	}
	defer st.Close()
	b := store.NewBuilder(dataset.DefaultSegmentEvents)
	var raw []byte
	var offs []int
	t0 := time.Now()
	for lo := 0; lo < c.lines(); lo += backfillBatchLines {
		hi := min(lo+backfillBatchLines, c.lines())
		tr.begin("op.batch")

		tr.begin("console.ParseBytes")
		events, err := cor.ParseBytes(c.slice(lo, hi), 1)
		tr.end(hi - lo)
		if err != nil {
			return n, err
		}

		tr.begin("alert.Engine.Feed")
		for _, ev := range events {
			eng.Feed(ev)
		}
		tr.end(len(events))

		tr.begin("console.AppendRaw")
		raw, offs = raw[:0], offs[:0]
		for _, ev := range events {
			offs = append(offs, len(raw))
			raw = ev.AppendRaw(raw)
		}
		offs = append(offs, len(raw))
		tr.end(len(events))

		tr.begin("serve.Journal.Append")
		for i := range events {
			j.Append(raw[offs[i]:offs[i+1]])
		}
		tr.end(len(events))
		tr.begin("serve.Journal.Commit")
		j.Commit()
		tr.end(1)

		tr.begin("store.Builder.Append")
		for _, ev := range events {
			if err := b.Append(ev); err != nil {
				return n, err
			}
		}
		tr.end(len(events))

		if b.Len() >= dataset.DefaultSegmentEvents || hi == c.lines() {
			tr.begin("store.Builder.Seal")
			seg, err := b.Seal()
			tr.end(b.Len())
			if err != nil {
				return n, err
			}
			tr.begin("store.PrepareSegment")
			p, err := st.PrepareSegment(seg)
			tr.end(1)
			if err != nil {
				return n, err
			}
			tr.begin("store.Publish")
			st.Publish(p)
			tr.end(1)
			b = store.NewBuilder(dataset.DefaultSegmentEvents)
		}
		tr.end(hi - lo)
	}
	n.WallNs = int64(time.Since(t0))
	n.Lines = c.lines()
	n.Fallbacks = cor.FastFallbacks
	n.JournalSyncs = j.Stats().Syncs
	n.DiskBytes = st.DiskBytes()
	if err := j.Sync(); err != nil {
		return n, err
	}
	n.JournalBytes, err = dirBytes(j.Dir())
	return n, err
}

// traceIngest alternates untraced and traced replays of the one-period
// corpus for about `seconds`; the difference between their medians is
// the tracing overhead.
func (r *run) traceIngest(tr *tracer, period *corpus, seconds float64) (ingestCounts, float64, error) {
	var last ingestCounts
	var plain, traced []float64
	for t0, round := time.Now(), 0; len(traced) == 0 || time.Since(t0).Seconds() < seconds; round++ {
		order := []*tracer{nil, tr}
		if round%2 == 1 {
			order = []*tracer{tr, nil} // neither side always runs on the warmer cache
		}
		for _, t := range order {
			dir := r.env.dir("replay")
			n, err := replayIngest(t, period, dir)
			os.RemoveAll(dir)
			if err != nil {
				return last, 0, err
			}
			if t == nil {
				plain = append(plain, float64(n.WallNs))
			} else {
				traced = append(traced, float64(n.WallNs))
				last = n
			}
		}
	}
	return last, 100 * (median(traced) - median(plain)) / median(plain), nil
}

// decodeAllocs counts heap allocations per decoded line, untraced.
func decodeAllocs(c *corpus) float64 {
	cor := console.NewCorrelator()
	m0 := mallocs()
	for lo := 0; lo < c.lines(); lo += backfillBatchLines {
		_, _ = cor.ParseBytes(c.slice(lo, min(lo+backfillBatchLines, c.lines())), 1) // errors surface in replayIngest
	}
	return float64(mallocs()-m0) / float64(c.lines())
}

// traceRoute runs the router's per-batch work: split by owning replica,
// then the seq-mask round trip each sub-batch makes on the wire.
func traceRoute(tr *tracer, c *corpus) {
	owner := func(line []byte, idx int) int {
		if node, ok := console.LineNode(line); ok {
			return int(node) % 3
		}
		return idx % 3
	}
	for lo := 0; lo < c.lines(); lo += backfillBatchLines {
		hi := min(lo+backfillBatchLines, c.lines())
		tr.begin("op.route")
		tr.begin("console.SplitBatch")
		_, masks, _, lines := console.SplitBatch(c.slice(lo, hi), 3, owner)
		tr.end(lines)
		tr.begin("console.Mask")
		for _, m := range masks {
			wire := base64.StdEncoding.EncodeToString(console.MaskBytes(m))
			back, _ := base64.StdEncoding.DecodeString(wire) // our own encoding cannot be malformed
			_ = console.MaskPositions(console.MaskFromBytes(back))
		}
		tr.end(lines)
		tr.end(lines)
	}
}

// traceStoreQueries calls the read path's layers directly over the
// sealed history for about `seconds`: open (mapped, digest-verified),
// the match-all scan kernels on one worker, a compiled predicate, a node
// scan, and parse/compile/execute of three plans — plus the same plan
// over an event tail and a three-way partial merge.
func traceStoreQueries(tr *tracer, c *corpus, sealedDir string, seconds float64) (rollupAllocs float64, err error) {
	tr.begin("op.open")
	tr.begin("store.OpenDir")
	st, _, err := store.OpenDir(filepath.Join(sealedDir, dataset.SegmentsDir), store.OpenOptions{Mapped: true, Recover: true})
	if err != nil {
		return 0, err
	}
	tr.end(st.EventCount())
	tr.end(1)
	defer st.Close()
	segs := st.Segments()
	events := st.EventCount()
	period := c.events[:c.periodLines()]
	since := c.events[0].Time.Add(7 * 24 * time.Hour)
	exprPruned := fmt.Sprintf("code=13 since=%s until=%s | top serial 10",
		since.UTC().Format(time.RFC3339), since.Add(7*24*time.Hour).UTC().Format(time.RFC3339))
	node := c.events[len(c.events)/2].Node

	run := func(kind, expr string) error {
		tr.begin("titanql.Parse")
		plan, err := titanql.Parse(expr)
		tr.end(1)
		if err != nil {
			return err
		}
		tr.begin("titanql.Compile")
		compiled, err := plan.Compile()
		tr.end(1)
		if err != nil {
			return err
		}
		tr.begin("titanql.Execute." + kind)
		_, err = compiled.Execute(segs, nil, 1)
		tr.end(events)
		return err
	}
	for t0, round := time.Now(), 0; round == 0 || time.Since(t0).Seconds() < seconds; round++ {
		tr.begin("op.query")
		m0 := mallocs()
		tr.begin("store.ParallelRollup")
		_, err := store.ParallelRollup(segs, nil, store.RollupSpec{ByCode: true, Bucket: 24 * time.Hour}, nil, 1)
		tr.end(events)
		if err != nil {
			return 0, err
		}
		rollupAllocs = float64(mallocs() - m0)
		tr.begin("store.ParallelTop")
		_, err = store.ParallelTop(segs, nil, store.TopSpec{By: store.TopByNode, K: 10}, nil, 1)
		tr.end(events)
		if err != nil {
			return 0, err
		}

		tr.begin("store.Predicate.Compile")
		m, err := store.Predicate{Codes: []xid.Code{31}, Cabinet: "c3-*", Cage: -1, Since: since, Until: since.Add(30 * 24 * time.Hour)}.Compile()
		tr.end(1)
		if err != nil {
			return 0, err
		}
		tr.begin("store.CountWhere")
		for _, seg := range segs {
			_ = seg.CountWhere(m)
		}
		tr.end(events)
		tr.begin("store.ScanNode")
		_ = st.ScanNode(node, time.Time{}, time.Time{})
		tr.end(1)

		for _, q := range [][2]string{{"selective", exprSelective}, {"unselective", exprUnselective}, {"pruned", exprPruned}} {
			if err := run(q[0], q[1]); err != nil {
				return 0, err
			}
		}

		// The unsealed tail is folded event by event.
		plan, err := titanql.Parse(exprUnselective)
		if err != nil {
			return 0, err
		}
		compiled, err := plan.Compile()
		if err != nil {
			return 0, err
		}
		tr.begin("titanql.Execute.tail")
		_, err = compiled.Execute(nil, period, 1)
		tr.end(len(period))
		if err != nil {
			return 0, err
		}

		// Three replicas' partials of one plan, merged as the router does.
		parts := make([]titanql.Partial, 3)
		for i := range parts {
			var share []*store.Segment
			for k := i; k < len(segs); k += 3 {
				share = append(share, segs[k])
			}
			tr.begin("titanql.ExecutePartial")
			parts[i], err = compiled.ExecutePartial(share, nil, 1)
			tr.end(1)
			if err != nil {
				return 0, err
			}
		}
		tr.begin("titanql.MergePartials")
		_, err = titanql.MergePartials(parts)
		tr.end(len(parts))
		if err != nil {
			return 0, err
		}
		tr.end(1)
	}
	return rollupAllocs, nil
}

// serveLoopback runs an in-process daemon on a loopback listener.
func serveLoopback(srv interface{ ServeListener(net.Listener) error }) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go srv.ServeListener(ln) // returns when the server shuts down; its error would repeat Shutdown's
	return "http://" + ln.Addr().String(), nil
}

// traceServeQueries warm-starts an in-process serve.Server on the sealed
// history and times each query shape through its HTTP handler. It then
// alternates the selective plan over HTTP with the same plan run directly
// on the server's own store: the difference is what the HTTP layer adds.
func traceServeQueries(tr *tracer, sealedDir string, plan []*query, rounds int) error {
	cfg := serve.DefaultConfig()
	cfg.CompactDir = filepath.Join(sealedDir, dataset.SegmentsDir)
	srv := serve.NewServer(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tr.begin("op.warmstart")
	tr.begin("serve.WarmStart")
	ws, err := srv.WarmStart(sealedDir)
	tr.end(ws.Replayed)
	tr.end(1)
	if err != nil {
		return err
	}
	url, err := serveLoopback(srv)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var selective *query
	for i := 0; i < rounds; i++ {
		for _, q := range plan {
			if q.Shape == "plan_selective" {
				selective = q
			}
			tr.begin("op.http_query")
			tr.begin("serve.http." + q.Shape)
			_, err := runQuery(client, url, q, true)
			tr.end(1)
			tr.end(1)
			if err != nil {
				return err
			}
		}
	}
	segs := srv.SealedStore().Segments()
	for i := 0; i < 5*rounds; i++ {
		tr.begin("op.overhead_probe")
		tr.begin("serve.http.probe")
		_, err := runQuery(client, url, selective, true)
		tr.end(1)
		if err != nil {
			return err
		}
		tr.begin("titanql.Run.direct")
		_, err = titanql.Run(exprSelective, segs, nil, 0)
		tr.end(1)
		tr.end(1)
		if err != nil {
			return err
		}
	}
	tr.begin("op.shutdown")
	tr.begin("serve.Shutdown")
	err = srv.Shutdown(ctx)
	tr.end(1)
	tr.end(1)
	return err
}

// traceRouter puts an in-process router in front of three in-process
// daemons: the one-period corpus goes in through Router.Handler(), the
// merged reads come back through it, and the replicas' alert evidence is
// replayed the way the router's /alerts does.
func traceRouter(tr *tracer, c *corpus, rounds int) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var replicas []*serve.Server
	var urls []string
	for i := 0; i < 3; i++ {
		srv := serve.NewServer(serve.DefaultConfig())
		defer srv.Shutdown(ctx)
		url, err := serveLoopback(srv)
		if err != nil {
			return err
		}
		replicas = append(replicas, srv)
		urls = append(urls, url)
	}
	rt, err := router.New(router.Config{Replicas: urls})
	if err != nil {
		return err
	}
	defer rt.Shutdown(ctx)
	h := rt.Handler()
	call := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	for lo := 0; lo < c.lines(); lo += backfillBatchLines {
		hi := min(lo+backfillBatchLines, c.lines())
		tr.begin("op.route_batch")
		tr.begin("router.Handler.ingest")
		rec := call(http.MethodPost, "/ingest", c.slice(lo, hi))
		tr.end(hi - lo)
		tr.end(hi - lo)
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("traced router: /ingest answered %d", rec.Code)
		}
	}
	for _, srv := range replicas {
		if err := srv.Quiesce(ctx); err != nil {
			return err
		}
	}
	reads := map[string]string{
		"query":  planSelective().Path,
		"rollup": rollupCode().Path,
		"top":    topNode().Path,
		"alerts": "/alerts",
	}
	for i := 0; i < rounds; i++ {
		for _, name := range []string{"query", "rollup", "top", "alerts"} {
			tr.begin("op.merged_read")
			tr.begin("router.Handler." + name)
			rec := call(http.MethodGet, reads[name], nil)
			tr.end(1)
			tr.end(1)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("traced router: %s answered %d", reads[name], rec.Code)
			}
		}
		// The alert merge's own cost, without the fan-out around it.
		var records []serve.FeedRecord
		var acfg alert.Config
		for _, url := range urls {
			var doc serve.FeedDoc
			if err := getJSON(pollClient, url+"/alertfeed", &doc); err != nil {
				return err
			}
			records = append(records, doc.Records...)
			acfg = doc.Config
		}
		sort.Slice(records, func(a, b int) bool { return records[a].Seq < records[b].Seq })
		tr.begin("op.alert_replay")
		tr.begin("serve.ReplayFeed")
		_, err := serve.ReplayFeed(acfg, records)
		tr.end(len(records))
		tr.end(1)
		if err != nil {
			return err
		}
	}
	return nil
}

// traceReport runs the paper path's layers once: the resilient flat
// load, the study index, the concurrent renderer, the observation
// checks, and the columnar load for comparison.
func traceReport(tr *tracer, datasetDir string) (loadAllocs float64, err error) {
	cfg := sim.DefaultConfig()
	cfg.Start, cfg.End = time.Time{}, time.Time{}
	tr.begin("op.report")
	m0 := mallocs()
	tr.begin("dataset.LoadResilient")
	res, health, err := dataset.LoadResilient(datasetDir, cfg, ingest.DefaultOptions())
	tr.end(1)
	if err != nil {
		return 0, err
	}
	loadAllocs = float64(mallocs() - m0)
	study := core.FromIngest(res, health)
	tr.begin("core.index")
	_ = study.EventsOf(xid.Code(48))
	tr.end(len(res.Events))
	tr.begin("core.WriteReportConcurrent")
	study.WriteReportConcurrent(io.Discard, 0)
	tr.end(1)
	tr.begin("core.CheckObservations")
	_ = study.CheckObservations()
	tr.end(1)
	tr.end(1)

	if err := dataset.WriteSegments(datasetDir, res.Events, 0); err != nil {
		return 0, err
	}
	tr.begin("op.load_store")
	tr.begin("dataset.LoadStore")
	_, st, err := dataset.LoadStore(datasetDir, cfg)
	tr.end(1)
	tr.end(1)
	if err != nil {
		return 0, err
	}
	st.Close()
	return loadAllocs, nil
}

// stubMeasure is what the router-in-front-of-stubs child run reports.
type stubMeasure struct {
	CPUUsPerLine, LinesPerS                float64
	SubBatchesPerBatch, Retries, ShardSkew float64
}

// routerStubRep puts a titanrouter child in front of three bench-owned
// stub replicas that only check the seq mask's popcount against the line
// count and answer 202: split, mask and fan-out with the replica cost
// removed.
func (r *run) routerStubRep(res *result, c *corpus) (*stubMeasure, error) {
	var lines [3]atomic.Int64
	var bad atomic.Int64
	var urls []string
	for i := range lines {
		i := i
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			body, _ := io.ReadAll(req.Body) // a short body fails the popcount check below
			mask, err := base64.StdEncoding.DecodeString(req.Header.Get(serve.SeqMaskHeader))
			n := countLines(body)
			if err != nil || console.MaskCount(console.MaskFromBytes(mask)) != n {
				bad.Add(1)
				http.Error(w, "mask popcount != lines", http.StatusBadRequest)
				return
			}
			lines[i].Add(int64(n))
			w.WriteHeader(http.StatusAccepted)
		})}
		go srv.Serve(ln) // ends at Close below
		defer srv.Close()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	rt, err := r.env.startDaemon("titanrouter", "-replicas", strings.Join(urls, ","))
	if err != nil {
		return nil, err
	}
	defer rt.kill()
	send := closedLoop(c, backfillBatchLines, 2, rt.url+"/ingest", "bench")
	wall := time.Since(send.First).Seconds()
	cpu, err := rt.cpuNow()
	if err != nil {
		return nil, err
	}
	bookSend(res, send, backfillBatchLines)
	var rs router.Stats
	if err := getJSON(pollClient, rt.url+"/stats", &rs); err != nil {
		return nil, err
	}
	var total, most int64
	for i := range lines {
		total += lines[i].Load()
		most = max(most, lines[i].Load())
	}
	res.Attempted++
	if bad.Load() != 0 || total != int64(c.lines()) || rs.LinesFailed != 0 {
		res.Failed++
		res.problem("router stub: %d bad sub-batches, %d of %d lines delivered, %d failed", bad.Load(), total, c.lines(), rs.LinesFailed)
	}
	return &stubMeasure{
		CPUUsPerLine:       float64(cpu.Microseconds()) / float64(c.lines()),
		LinesPerS:          float64(c.lines()) / wall,
		SubBatchesPerBatch: float64(rs.SubBatches) / float64(rs.BatchesAccepted),
		Retries:            float64(rs.DeliverRetries),
		ShardSkew:          float64(most) / (float64(total) / 3),
	}, nil
}

// tracedRun produces every per-layer metric. The workload argument names
// the run in trace.json; the layer suite is the same for all five, since
// every per-layer metric is reported every time.
func (r *run) tracedRun(workload string) (*result, error) {
	res := &result{Workload: workload}
	if err := r.env.build(); err != nil {
		return nil, err
	}
	c, err := newCorpus(r.seed, r.sc)
	if err != nil {
		return nil, err
	}
	period := c.prefix(c.periodLines())
	datasetDir, sealedDir := r.env.dir("dataset"), r.env.dir("sealed")
	t0 := time.Now()
	if err := c.writeDataset(datasetDir); err != nil {
		return nil, err
	}
	writeS := time.Since(t0).Seconds()
	if err := c.writeSealed(sealedDir, c.lines()); err != nil {
		return nil, err
	}
	plan := queryPlan(newRand(r.seed), c.events, 1)
	if _, err := newOracle(c.events, plan); err != nil {
		return nil, err
	}

	// In-process, traced: the three operations and the layers under them.
	tr := newTracer()
	ing, overheadPct, err := r.traceIngest(tr, period, 0.3*r.seconds)
	if err != nil {
		return nil, err
	}
	traceRoute(tr, period)
	rollupAllocs, err := traceStoreQueries(tr, c, sealedDir, 0.3*r.seconds)
	if err != nil {
		return nil, err
	}
	if err := traceServeQueries(tr, sealedDir, plan, 3); err != nil {
		return nil, err
	}
	if err := traceRouter(tr, period, 3); err != nil {
		return nil, err
	}
	loadAllocs, err := traceReport(tr, datasetDir)
	if err != nil {
		return nil, err
	}
	agg := selfTimes(tr.spans)

	// Out of process, untraced: figures only the real binaries can give.
	short := c.prefix(r.sc.TraceCopies * c.periodLines())
	bf, err := r.backfillRep(res, short, codeCounts(short.events), nil, 0)
	if err != nil {
		return nil, err
	}
	stub, err := r.routerStubRep(res, short)
	if err != nil {
		return nil, err
	}
	fleet, err := r.fleetRep(res, short, nil, 0)
	if err != nil {
		return nil, err
	}
	lr := *r
	lr.seconds = min(r.seconds, 2)
	lfx, err := lr.fixtureFor("live_mixed", c)
	if err != nil {
		return nil, err
	}
	live, err := lr.liveRep(res, lfx)
	if err != nil {
		return nil, err
	}

	us := func(name string) float64 { return perUnit(agg, name) / 1e3 }
	msMedian := func(name string) float64 { return medianSelf(agg, name) / 1e6 }
	segments := float64(agg["store.PrepareSegment"].Count)
	attributed := us("console.ParseBytes") + us("alert.Engine.Feed") + us("console.AppendRaw") +
		us("serve.Journal.Append") + float64(agg["serve.Journal.Commit"].SelfNs)/1e3/float64(agg["console.ParseBytes"].N) +
		us("store.Builder.Append") + us("store.Builder.Seal") +
		float64(agg["store.PrepareSegment"].SelfNs+agg["store.Publish"].SelfNs)/1e3/float64(agg["store.Builder.Seal"].N)
	ack := summarize(bf.AckMs)

	set := func(name string, v float64) {
		for _, s := range perLayerSpecs {
			if s.Name == name {
				res.Metrics = append(res.Metrics, metric{name, v, s.Unit})
				return
			}
		}
		panic("bench: per-layer metric " + name + " is not in perLayerSpecs") // a typo in this file
	}
	set("console.decode_ns_per_line", perUnit(agg, "console.ParseBytes"))
	set("console.decode_allocs_per_line", decodeAllocs(period))
	set("console.fast_fallbacks", float64(ing.Fallbacks))
	set("console.encode_ns_per_event", perUnit(agg, "console.AppendRaw"))
	set("console.split_ns_per_line", perUnit(agg, "console.SplitBatch"))
	set("console.mask_ns_per_line", perUnit(agg, "console.Mask"))
	set("alert.feed_ns_per_event", perUnit(agg, "alert.Engine.Feed"))
	set("serve.journal_append_ns_per_event", perUnit(agg, "serve.Journal.Append")+float64(agg["serve.Journal.Commit"].SelfNs)/float64(agg["serve.Journal.Append"].N))
	set("serve.journal_bytes_per_event", float64(ing.JournalBytes)/float64(ing.Lines))
	set("serve.journal_syncs", float64(ing.JournalSyncs))
	set("serve.ack_p50_ms", ack.P50)
	set("serve.ack_p99_ms", ack.P99)
	set("serve.batches_429", bf.Retries429)
	set("serve.compactions", bf.Compactions)
	set("serve.sealed_fraction_at_quiesce", bf.SealedFraction)
	set("serve.shutdown_s", bf.ShutdownS)
	set("serve.warmstart_s", msMedian("serve.WarmStart")/1e3)
	set("serve.query_overhead_us", (msMedian("serve.http.probe")-msMedian("titanql.Run.direct"))*1e3)
	for _, shape := range allShapes {
		set("serve.q."+shape+"_p50_ms", msMedian("serve.http."+shape))
	}
	set("serve.ingest_cpu_us_per_line", bf.CPUUsPerLine)
	set("serve.attributed_us_per_line", attributed)
	set("serve.unattributed_us_per_line", bf.CPUUsPerLine-attributed)
	set("serve.alert_replay_ms", msMedian("serve.ReplayFeed"))
	set("store.append_seal_ns_per_event", perUnit(agg, "store.Builder.Append")+perUnit(agg, "store.Builder.Seal"))
	set("store.commit_ms_per_segment", float64(agg["store.PrepareSegment"].SelfNs+agg["store.Publish"].SelfNs)/1e6/segments)
	set("store.disk_bytes_per_event", float64(ing.DiskBytes)/float64(ing.Lines))
	set("store.open_mapped_ns_per_event", perUnit(agg, "store.OpenDir"))
	set("store.rollup_ns_per_event", perUnit(agg, "store.ParallelRollup"))
	set("store.top_ns_per_event", perUnit(agg, "store.ParallelTop"))
	set("store.rollup_allocs_per_query", rollupAllocs)
	set("store.count_where_ns_per_event", perUnit(agg, "store.CountWhere"))
	set("store.scan_node_us", msMedian("store.ScanNode")*1e3)
	set("titanql.parse_us", msMedian("titanql.Parse")*1e3)
	set("titanql.run_ms.selective", msMedian("titanql.Execute.selective"))
	set("titanql.run_ms.unselective", msMedian("titanql.Execute.unselective"))
	set("titanql.run_ms.pruned", msMedian("titanql.Execute.pruned"))
	set("titanql.tail_fold_ns_per_event", perUnit(agg, "titanql.Execute.tail"))
	set("titanql.merge_us", msMedian("titanql.MergePartials")*1e3)
	set("router.stub_cpu_us_per_line", stub.CPUUsPerLine)
	set("router.stub_lines_per_s", stub.LinesPerS)
	set("router.cpu_share", fleet.RouterCPUShare)
	set("router.replica_cpu_us_per_line", fleet.ReplicaCPUUsPerLine)
	set("router.sub_batches_per_batch", fleet.SubBatchesPerBatch)
	set("router.deliver_retries", fleet.Retries)
	set("router.shard_skew", fleet.ShardSkew)
	set("router.ingest_us_per_line", us("router.Handler.ingest"))
	for _, name := range []string{"query", "rollup", "top", "alerts"} {
		set("router.merged."+name+"_p50_ms", msMedian("router.Handler."+name))
	}
	set("sim.run_s", c.simSeconds)
	set("dataset.write_s", writeS)
	set("dataset.load_flat_ms", msMedian("dataset.LoadResilient"))
	set("dataset.load_store_ms", msMedian("dataset.LoadStore"))
	set("dataset.load_allocs", loadAllocs)
	set("core.index_ms", msMedian("core.index"))
	set("core.report_render_ms", msMedian("core.WriteReportConcurrent"))
	set("core.observations_ms", msMedian("core.CheckObservations"))
	set("gen.late_p99_ms", summarize(live.Send.LateMs).P99)
	set("gen.cpu_share", bf.GenCPUShare)
	set("trace.overhead_pct", overheadPct)

	res.detail("spans", float64(len(tr.spans)), "count")
	res.detail("operations", float64(tr.ops), "count")
	res.detail("fleet.ingest_cpu_us_per_line", fleet.CPUUsPerLine, "us")
	res.detail("router.stub_plus_replica_us_per_line", stub.CPUUsPerLine+fleet.ReplicaCPUUsPerLine, "us")
	out := filepath.Join(r.env.root, "bench", "out", "trace.json")
	header := map[string]any{"workload": workload, "seed": r.seed, "seconds": r.seconds, "scale": r.sc,
		"period_lines": c.periodLines(), "history_lines": c.lines()}
	if err := tr.write(out, header); err != nil {
		return nil, err
	}
	r.logf("%d spans over %d operations written to bench/out/trace.json", len(tr.spans), tr.ops)
	return res, nil
}
