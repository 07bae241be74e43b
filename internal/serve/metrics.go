package serve

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Operational counters, exported in the Prometheus text exposition
// format at /metrics. Everything is a plain atomic so the hot ingest
// path pays one uncontended add per bookkeeping event; no external
// metrics dependency is required (the container bakes in nothing beyond
// the standard library).

// latencyBuckets are the upper bounds (seconds) of the ingest-latency
// histogram, chosen around the sub-millisecond-to-seconds range a local
// ingest round trip spans.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// metrics is the full counter set. Batches are HTTP POST /ingest bodies;
// lines are newline-delimited console records inside them.
type metrics struct {
	start time.Time

	// Admission.
	batchesAccepted atomic.Uint64
	batchesShed     atomic.Uint64
	batchesRejected atomic.Uint64 // malformed requests (not load shedding)
	linesAccepted   atomic.Uint64 // lines in accepted batches (counted at parse)
	linesShed       atomic.Uint64 // lines in shed batches (newline count)

	// Router-sequenced sub-batches answered without applying them.
	batchesDuplicate atomic.Uint64 // replays of a base already taken (202)
	linesDuplicate   atomic.Uint64
	batchesStaleSeq  atomic.Uint64 // bases older than the window (409)

	// Decode (aggregated across request goroutines).
	events        atomic.Uint64 // lines that decoded into events
	dropped       atomic.Uint64 // chatter: no SEC rule matched
	malformed     atomic.Uint64 // rule matched but record undecodable
	oversized     atomic.Uint64 // over the 1 MiB record cap
	fastHits      atomic.Uint64 // zero-allocation fast-path decodes
	fastFallbacks atomic.Uint64 // lines that fell back to the regex path

	// State application.
	eventsApplied  atomic.Uint64
	alertsRaised   atomic.Uint64
	warningsIssued atomic.Uint64

	// Compaction (see compact.go).
	compactions     atomic.Uint64 // successful compaction passes
	compactFailures atomic.Uint64 // passes that failed to seal
	compactRetries  atomic.Uint64 // chunk seals retried after a transient fault
	eventsSealed    atomic.Uint64 // events moved from memory into segments

	// Fleet-wide query endpoints (see query.go).
	queryNodeHistory atomic.Uint64 // GET /nodes/{cname}/history served
	queryCodeHistory atomic.Uint64 // GET /codes/{xid}/history served
	queryRollup      atomic.Uint64 // GET /rollup served
	queryTop         atomic.Uint64 // GET /top served
	queries          atomic.Uint64 // GET /query requests (titanql plans)
	queryErrors      atomic.Uint64 // GET /query requests rejected (parse/compile/execute)
	rowsFolded       atomic.Uint64 // rows /rollup, /top and /query folded into accumulators
	foldNanos        atomic.Uint64 // wall time of those folds (segments + tail + worker merge, no render)
	renderNanos      atomic.Uint64 // wall time rendering and sending self-rendering documents (writeJSON)
	renderBytes      atomic.Uint64 // bytes of those documents

	// Wall time of each write-path stage, one stopwatch reading per batch
	// (per compaction pass for seal), indexed by stage.
	stageNanos [numStages]atomic.Uint64

	// Ingest latency histogram (request admission to 202, seconds).
	latCount atomic.Uint64
	latSum   atomic.Uint64 // microseconds, to stay integral
	latBkt   [13]atomic.Uint64
}

func newMetrics(now time.Time) *metrics { return &metrics{start: now} }

// The write path's stages, in pipeline order: reading the body off the
// socket, its decode on the request's goroutine, the decoded batch
// waiting in the hand-off channel for the applier, the journal
// write-ahead, applyBatch, and a compaction pass sealing segments.
const (
	stageBodyRead = iota
	stageDecode
	stageQueueWait
	stageJournal
	stageApply
	stageSeal
	numStages
)

// StageSeconds is the wall time spent in each write-path stage; over
// events_applied it is that stage's time per event.
type StageSeconds struct {
	BodyRead  float64 `json:"body_read"`
	Decode    float64 `json:"decode"`
	QueueWait float64 `json:"queue_wait"`
	Journal   float64 `json:"journal"`
	Apply     float64 `json:"apply"`
	Seal      float64 `json:"seal"`
}

// observeStage books the wall time since start against stage and returns
// the reading, which is the next stage's start.
func (m *metrics) observeStage(stage int, start time.Time) time.Time {
	now := time.Now()
	m.stageNanos[stage].Add(uint64(now.Sub(start)))
	return now
}

// stageSeconds snapshots the stage stopwatches.
func (m *metrics) stageSeconds() StageSeconds {
	sec := func(stage int) float64 { return float64(m.stageNanos[stage].Load()) / 1e9 }
	return StageSeconds{sec(stageBodyRead), sec(stageDecode), sec(stageQueueWait), sec(stageJournal), sec(stageApply), sec(stageSeal)}
}

// observeFold books one aggregate query's fold: the rows its accumulator
// took in and the wall time since start.
func (m *metrics) observeFold(start time.Time, rows int64) {
	m.foldNanos.Add(uint64(time.Since(start)))
	m.rowsFolded.Add(uint64(rows))
}

// observeLatency books one ingest request round trip.
func (m *metrics) observeLatency(d time.Duration) {
	m.latCount.Add(1)
	m.latSum.Add(uint64(d.Microseconds()))
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			m.latBkt[i].Add(1)
			return
		}
	}
	m.latBkt[len(latencyBuckets)].Add(1)
}

// write renders st — the same gather /stats serves — as the Prometheus
// text exposition, plus the ingest-latency histogram. Counter names
// follow the titand_ prefix convention; everything ends in _total except
// gauges. TestStatsMetricsParity holds the two faces to the same set of
// figures.
func (m *metrics) write(w io.Writer, st Stats) error {
	bw := bufio.NewWriter(w)
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	flag := func(name, help string, on bool) {
		v := 0.0
		if on {
			v = 1
		}
		gauge(name, help, v)
	}

	counter("titand_ingest_batches_accepted_total", "POST /ingest bodies admitted: decoded and queued for the applier.", st.BatchesAccepted)
	counter("titand_ingest_batches_shed_total", "POST /ingest bodies rejected with 429 because the queue was full.", st.BatchesShed)
	counter("titand_ingest_batches_rejected_total", "POST /ingest bodies rejected as malformed (wrong method, oversized body, read error).", st.BatchesRejected)
	counter("titand_ingest_lines_total", "Console lines read out of accepted batches.", st.LinesAccepted)
	counter("titand_ingest_lines_shed_total", "Console lines discarded by load shedding (newline count of shed bodies).", st.LinesShed)
	counter("titand_ingest_batches_duplicate_total", "Sequenced sub-batches answered 202 without applying them: replays of a base already taken.", st.BatchesDuplicate)
	counter("titand_ingest_lines_duplicate_total", "Console lines in those replays.", st.LinesDuplicate)
	counter("titand_ingest_batches_stale_seq_total", "Sequenced sub-batches refused with 409: a base older than the window of applied bases.", st.BatchesStaleSeq)
	counter("titand_decode_events_total", "Lines that decoded into critical-event records.", st.Events)
	counter("titand_decode_chatter_total", "Lines dropped because no SEC rule matched.", st.Chatter)
	counter("titand_decode_malformed_total", "Lines that matched a rule but could not be decoded.", st.Malformed)
	counter("titand_decode_oversized_total", "Lines over the 1 MiB record cap, skipped at the line reader.", st.Oversized)
	counter("titand_decode_fast_hits_total", "Lines decoded on the zero-allocation fast path.", st.FastHits)
	counter("titand_decode_fast_fallbacks_total", "Lines that left the fast path for the regex fallback.", st.FastFallbacks)
	counter("titand_events_applied_total", "Events applied to the online state (global detectors + node shards).", st.EventsApplied)
	fmt.Fprintf(bw, "# HELP titand_ingest_stage_seconds_total Wall time in each write-path stage (one reading per batch; per compaction pass for seal); over events applied it is the stage's time per event.\n# TYPE titand_ingest_stage_seconds_total counter\n")
	ss := st.IngestStageSeconds
	for _, stage := range []struct {
		name string
		v    float64
	}{{"body_read", ss.BodyRead}, {"decode", ss.Decode}, {"queue_wait", ss.QueueWait}, {"journal", ss.Journal}, {"apply", ss.Apply}, {"seal", ss.Seal}} {
		fmt.Fprintf(bw, "titand_ingest_stage_seconds_total{stage=%q} %g\n", stage.name, stage.v)
	}
	counter("titand_alerts_raised_total", "Operator alerts raised by the streaming detectors.", st.AlertsRaised)
	counter("titand_warnings_issued_total", "Precursor warnings issued by the armed prediction rules.", st.WarningsIssued)
	counter("titand_compactions_total", "Compaction passes that sealed retained events into segments.", st.Compactions)
	counter("titand_compaction_failures_total", "Compaction passes that failed to seal (events stay retained).", st.CompactionFailures)
	counter("titand_compaction_retries_total", "Chunk seals retried after a transient I/O fault (jittered exponential backoff).", st.CompactionRetries)
	counter("titand_events_sealed_total", "Events moved from the retained log into on-disk columnar segments.", st.EventsSealed)
	counter("titand_query_node_history_total", "Node history queries served (GET /nodes/{cname}/history).", st.QueryNodeHistory)
	counter("titand_query_code_history_total", "Fleet-wide code history queries served (GET /codes/{xid}/history).", st.QueryCodeHistory)
	counter("titand_query_rollup_total", "Time-bucketed rollup queries served (GET /rollup).", st.QueryRollup)
	counter("titand_query_top_total", "Top-offender queries served (GET /top).", st.QueryTop)
	counter("titand_queries_total", "titanql plans received on GET /query (accepted or not).", st.Queries)
	counter("titand_query_errors_total", "GET /query requests rejected at parse, compile or execute.", st.QueryErrors)
	counter("titand_query_rows_folded_total", "Rows folded into accumulators by /rollup, /top and /query.", st.QueryRowsFolded)
	seconds := func(name, help string, v float64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	seconds("titand_query_fold_seconds_total", "Wall time of those folds (scan and worker merge, before rendering); over rows folded it is the kernels' time per row.", st.QueryFoldSeconds)
	seconds("titand_query_render_seconds_total", "Wall time rendering and sending the self-rendering query documents (rollup, top, query, histories); over render bytes it is the render's time per byte.", st.QueryRenderSeconds)
	counter("titand_query_render_bytes_total", "Bytes of those documents.", st.QueryRenderBytes)
	if j := st.Journal; j != nil {
		counter("titand_journal_appends_total", "Events framed into the write-ahead journal.", j.Appends)
		counter("titand_journal_append_failures_total", "Events applied but not journaled because the journal was wedged by an I/O failure.", j.AppendFailures)
		counter("titand_journal_syncs_total", "Journal fsync calls (policy-dependent).", j.Syncs)
		counter("titand_journal_rotations_total", "Journal file rotations.", j.Rotations)
		counter("titand_journal_files_removed_total", "Journal files deleted after the sealed floor covered them.", j.FilesRemoved)
		flag("titand_journal_wedged", "1 while the journal is wedged by an append failure (recovers at the next rotation).", j.Wedged)
		gauge("titand_journal_next_seq", "Global sequence the next journaled event receives.", float64(j.NextSeq))
	}

	// Per-source admission accounting, one labeled series per source,
	// rendered in sorted order so the exposition is byte-stable.
	if len(st.Sources) > 0 {
		names := make([]string, 0, len(st.Sources))
		for name := range st.Sources {
			names = append(names, name)
		}
		sort.Strings(names)
		srcCounter := func(name, help string, value func(SourceStats) uint64) {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, src := range names {
				fmt.Fprintf(bw, "%s{source=%q} %d\n", name, src, value(st.Sources[src]))
			}
		}
		srcCounter("titand_source_lines_offered_total", "Console lines offered by each X-Titan-Source feed.", func(s SourceStats) uint64 { return s.OfferedLines })
		srcCounter("titand_source_lines_accepted_total", "Console lines admitted per source.", func(s SourceStats) uint64 { return s.AcceptedLines })
		srcCounter("titand_source_lines_shed_total", "Console lines shed per source (exact; offered = accepted + shed).", func(s SourceStats) uint64 { return s.ShedLines })
		srcCounter("titand_source_batches_offered_total", "Batches offered per source.", func(s SourceStats) uint64 { return s.OfferedBatches })
		srcCounter("titand_source_batches_accepted_total", "Batches admitted per source.", func(s SourceStats) uint64 { return s.AcceptedBatches })
		srcCounter("titand_source_batches_shed_total", "Batches shed per source.", func(s SourceStats) uint64 { return s.ShedBatches })
	}

	// Ingest latency histogram.
	fmt.Fprintf(bw, "# HELP titand_ingest_latency_seconds Ingest request latency (admission to response).\n")
	fmt.Fprintf(bw, "# TYPE titand_ingest_latency_seconds histogram\n")
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += m.latBkt[i].Load()
		fmt.Fprintf(bw, "titand_ingest_latency_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", ub), cum)
	}
	cum += m.latBkt[len(latencyBuckets)].Load()
	fmt.Fprintf(bw, "titand_ingest_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(bw, "titand_ingest_latency_seconds_sum %g\n", float64(m.latSum.Load())/1e6)
	fmt.Fprintf(bw, "titand_ingest_latency_seconds_count %d\n", m.latCount.Load())

	gauge("titand_queue_depth", "Batches admitted and not yet applied.", float64(st.QueueDepth))
	gauge("titand_queue_capacity", "Most batches that may be admitted and not yet applied at once.", float64(st.QueueCapacity))
	gauge("titand_nodes_tracked", "Nodes with online reliability state.", float64(st.NodesTracked))
	gauge("titand_cards_tracked", "GPU cards with online reliability state.", float64(st.CardsTracked))
	gauge("titand_retained_events", "Applied events still held in memory (the unsealed tail).", float64(st.RetainedEvents))
	gauge("titand_sealed_segments", "On-disk columnar segments sealed by compaction.", float64(st.SealedSegments))
	gauge("titand_sealed_events", "Events stored in sealed columnar segments.", float64(st.SealedEvents))
	gauge("titand_sealed_segment_bytes", "Total on-disk bytes of sealed segment files.", float64(st.SealedSegmentBytes))
	gauge("titand_sealed_mapped_bytes", "Sealed segment bytes served from read-only file mappings (0 on the heap path).", float64(st.SealedMappedBytes))
	gauge("titand_last_compaction_timestamp_seconds", "Unix time of the last successful compaction (0 = never).", float64(st.LastCompactionUnix))
	gauge("titand_sealed_seq", "Global sequence the sealed history durably covers (the SEALED floor).", float64(st.SealedSeq))
	flag("titand_degraded", "1 when the warm start quarantined corrupt segments; the detector history has counted holes.", st.Degraded)
	gauge("titand_quarantined_segments", "Corrupt segment files moved aside by the warm start.", float64(st.QuarantinedSegments))
	gauge("titand_quarantined_bytes", "On-disk bytes of quarantined segment files.", float64(st.QuarantinedBytes))
	gauge("titand_events_lost_to_quarantine", "Exact events inside quarantined segments (from the SEALED floor arithmetic).", float64(st.EventsLost))
	gauge("titand_orphans_removed", "Uncommitted segment temp files the warm start removed.", float64(st.OrphansRemoved))
	gauge("titand_heap_inuse_bytes", "Go runtime heap bytes in use (runtime.MemStats.HeapInuse).", float64(st.HeapInuseBytes))
	flag("titand_alert_feed_complete", "1 while /alertfeed can vouch for a merged /alerts (0 after untagged ingest or a crash restart).", st.AlertFeedComplete)
	flag("titand_draining", "1 while the server is draining toward shutdown.", st.Draining)
	gauge("titand_uptime_seconds", "Seconds since the service started.", st.UptimeSeconds)
	return bw.Flush()
}
