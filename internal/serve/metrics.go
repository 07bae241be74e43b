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

	// Decode (aggregated across parse workers).
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

	// Ingest latency histogram (request admission to 202, seconds).
	latCount atomic.Uint64
	latSum   atomic.Uint64 // microseconds, to stay integral
	latBkt   [13]atomic.Uint64
}

func newMetrics(now time.Time) *metrics { return &metrics{start: now} }

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

// snapshotGauges are point-in-time values rendered alongside the
// counters; the server fills them at scrape time.
type snapshotGauges struct {
	queueDepth   int
	queueCap     int
	nodesTracked int
	cardsTracked int
	shards       int
	draining     bool

	// Compaction and memory.
	retainedEvents int
	sealedSegments int
	sealedEvents   int
	sealedBytes    int64
	lastCompact    int64 // unix seconds, 0 = never
	heapInuse      uint64

	// Crash recovery: degraded-start accounting plus, when the
	// write-ahead journal is active, its counter snapshot.
	degraded         bool
	quarantinedSegs  int
	quarantinedBytes int64
	eventsLost       uint64
	sealedSeq        uint64
	journal          *JournalStats

	// Per-source ingest accounting (X-Titan-Source tagged batches).
	sources map[string]SourceStats
}

// write renders the Prometheus text exposition. Counter names follow the
// titand_ prefix convention; everything ends in _total except gauges.
func (m *metrics) write(w io.Writer, g snapshotGauges, now time.Time) error {
	bw := bufio.NewWriter(w)
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("titand_ingest_batches_accepted_total", "POST /ingest bodies admitted to the parse queue.", m.batchesAccepted.Load())
	counter("titand_ingest_batches_shed_total", "POST /ingest bodies rejected with 429 because the queue was full.", m.batchesShed.Load())
	counter("titand_ingest_batches_rejected_total", "POST /ingest bodies rejected as malformed (wrong method, oversized body, read error).", m.batchesRejected.Load())
	counter("titand_ingest_lines_total", "Console lines read out of accepted batches.", m.linesAccepted.Load())
	counter("titand_ingest_lines_shed_total", "Console lines discarded by load shedding (newline count of shed bodies).", m.linesShed.Load())
	counter("titand_decode_events_total", "Lines that decoded into critical-event records.", m.events.Load())
	counter("titand_decode_chatter_total", "Lines dropped because no SEC rule matched.", m.dropped.Load())
	counter("titand_decode_malformed_total", "Lines that matched a rule but could not be decoded.", m.malformed.Load())
	counter("titand_decode_oversized_total", "Lines over the 1 MiB record cap, skipped at the line reader.", m.oversized.Load())
	counter("titand_decode_fast_hits_total", "Lines decoded on the zero-allocation fast path.", m.fastHits.Load())
	counter("titand_decode_fast_fallbacks_total", "Lines that left the fast path for the regex fallback.", m.fastFallbacks.Load())
	counter("titand_events_applied_total", "Events applied to the online state (global detectors + node shards).", m.eventsApplied.Load())
	counter("titand_alerts_raised_total", "Operator alerts raised by the streaming detectors.", m.alertsRaised.Load())
	counter("titand_warnings_issued_total", "Precursor warnings issued by the armed prediction rules.", m.warningsIssued.Load())
	counter("titand_compactions_total", "Compaction passes that sealed retained events into segments.", m.compactions.Load())
	counter("titand_compaction_failures_total", "Compaction passes that failed to seal (events stay retained).", m.compactFailures.Load())
	counter("titand_compaction_retries_total", "Chunk seals retried after a transient I/O fault (jittered exponential backoff).", m.compactRetries.Load())
	counter("titand_events_sealed_total", "Events moved from the retained log into on-disk columnar segments.", m.eventsSealed.Load())
	counter("titand_query_node_history_total", "Node history queries served (GET /nodes/{cname}/history).", m.queryNodeHistory.Load())
	counter("titand_query_code_history_total", "Fleet-wide code history queries served (GET /codes/{xid}/history).", m.queryCodeHistory.Load())
	counter("titand_query_rollup_total", "Time-bucketed rollup queries served (GET /rollup).", m.queryRollup.Load())
	counter("titand_query_top_total", "Top-offender queries served (GET /top).", m.queryTop.Load())
	counter("titand_queries_total", "titanql plans received on GET /query (accepted or not).", m.queries.Load())
	counter("titand_query_errors_total", "GET /query requests rejected at parse, compile or execute.", m.queryErrors.Load())
	counter("titand_query_rows_folded_total", "Rows folded into accumulators by /rollup, /top and /query.", m.rowsFolded.Load())
	fmt.Fprintf(bw, "# HELP %[1]s %[2]s\n# TYPE %[1]s counter\n%[1]s %[3]g\n", "titand_query_fold_seconds_total",
		"Wall time of those folds (scan and worker merge, before rendering); over rows folded it is the kernels' time per row.", float64(m.foldNanos.Load())/1e9)
	if g.journal != nil {
		counter("titand_journal_appends_total", "Events framed into the write-ahead journal.", g.journal.Appends)
		counter("titand_journal_append_failures_total", "Events applied but not journaled because the journal was wedged by an I/O failure.", g.journal.AppendFailures)
		counter("titand_journal_syncs_total", "Journal fsync calls (policy-dependent).", g.journal.Syncs)
		counter("titand_journal_rotations_total", "Journal file rotations.", g.journal.Rotations)
		counter("titand_journal_files_removed_total", "Journal files deleted after the sealed floor covered them.", g.journal.FilesRemoved)
		wedged := 0.0
		if g.journal.Wedged {
			wedged = 1
		}
		gauge("titand_journal_wedged", "1 while the journal is wedged by an append failure (recovers at the next rotation).", wedged)
		gauge("titand_journal_next_seq", "Global sequence the next journaled event receives.", float64(g.journal.NextSeq))
	}

	// Per-source admission accounting, one labeled series per source,
	// rendered in sorted order so the exposition is byte-stable.
	if len(g.sources) > 0 {
		names := make([]string, 0, len(g.sources))
		for name := range g.sources {
			names = append(names, name)
		}
		sort.Strings(names)
		srcCounter := func(name, help string, value func(SourceStats) uint64) {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, src := range names {
				fmt.Fprintf(bw, "%s{source=%q} %d\n", name, src, value(g.sources[src]))
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

	gauge("titand_queue_depth", "Parse-queue batches currently waiting.", float64(g.queueDepth))
	gauge("titand_queue_capacity", "Parse-queue capacity in batches.", float64(g.queueCap))
	gauge("titand_nodes_tracked", "Nodes with online reliability state.", float64(g.nodesTracked))
	gauge("titand_cards_tracked", "GPU cards with online reliability state.", float64(g.cardsTracked))
	gauge("titand_state_shards", "Per-node state shards.", float64(g.shards))
	gauge("titand_retained_events", "Applied events still held in memory (the unsealed tail).", float64(g.retainedEvents))
	gauge("titand_sealed_segments", "On-disk columnar segments sealed by compaction.", float64(g.sealedSegments))
	gauge("titand_sealed_events", "Events stored in sealed columnar segments.", float64(g.sealedEvents))
	gauge("titand_sealed_segment_bytes", "Total on-disk bytes of sealed segment files.", float64(g.sealedBytes))
	gauge("titand_last_compaction_timestamp_seconds", "Unix time of the last successful compaction (0 = never).", float64(g.lastCompact))
	gauge("titand_sealed_seq", "Global sequence the sealed history durably covers (the SEALED floor).", float64(g.sealedSeq))
	degraded := 0.0
	if g.degraded {
		degraded = 1
	}
	gauge("titand_degraded", "1 when the warm start quarantined corrupt segments; the detector history has counted holes.", degraded)
	gauge("titand_quarantined_segments", "Corrupt segment files moved aside by the warm start.", float64(g.quarantinedSegs))
	gauge("titand_quarantined_bytes", "On-disk bytes of quarantined segment files.", float64(g.quarantinedBytes))
	gauge("titand_events_lost_to_quarantine", "Exact events inside quarantined segments (from the SEALED floor arithmetic).", float64(g.eventsLost))
	gauge("titand_heap_inuse_bytes", "Go runtime heap bytes in use (runtime.MemStats.HeapInuse).", float64(g.heapInuse))
	drain := 0.0
	if g.draining {
		drain = 1
	}
	gauge("titand_draining", "1 while the server is draining toward shutdown.", drain)
	gauge("titand_uptime_seconds", "Seconds since the service started.", now.Sub(m.start).Seconds())
	return bw.Flush()
}
