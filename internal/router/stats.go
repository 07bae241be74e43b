package router

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"titanre/internal/jsonw"
)

// Router observability: /stats (JSON), /metrics (Prometheus text) and
// /healthz. The per-source accounting is the QoS contract made
// auditable — for every source, offered == accepted + shed + failed in
// lines and in batches, exactly, which the source-isolation test
// checks against the load generator's own books.

// SourceStats is one feed's exact account at the router.
type SourceStats struct {
	OfferedBatches  uint64 `json:"offered_batches"`
	AcceptedBatches uint64 `json:"accepted_batches"`
	ShedBatches     uint64 `json:"shed_batches"`
	FailedBatches   uint64 `json:"failed_batches"`
	OfferedLines    uint64 `json:"offered_lines"`
	AcceptedLines   uint64 `json:"accepted_lines"`
	ShedLines       uint64 `json:"shed_lines"`
	FailedLines     uint64 `json:"failed_lines"`
	InflightLines   int64  `json:"inflight_lines"`
}

// Stats is the GET /stats document.
type Stats struct {
	UptimeSeconds    float64                `json:"uptime_seconds"`
	Replicas         []string               `json:"replicas"`
	SourceShareLines int                    `json:"source_share_lines"`
	BatchesOffered   uint64                 `json:"batches_offered"`
	BatchesAccepted  uint64                 `json:"batches_accepted"`
	BatchesShed      uint64                 `json:"batches_shed"`
	BatchesFailed    uint64                 `json:"batches_failed"`
	BatchesRejected  uint64                 `json:"batches_rejected"`
	LinesOffered     uint64                 `json:"lines_offered"`
	LinesDelivered   uint64                 `json:"lines_delivered"`
	LinesShed        uint64                 `json:"lines_shed"`
	LinesFailed      uint64                 `json:"lines_failed"`
	SubBatches       uint64                 `json:"sub_batches"`
	DeliverRetries   uint64                 `json:"deliver_retries"`
	DupsAbsorbed     uint64                 `json:"duplicates_absorbed"`
	ReadFanouts      uint64                 `json:"read_fanouts"`
	ReadErrors       uint64                 `json:"read_errors"`
	MergedAlerts     uint64                 `json:"merged_alerts"`
	DegradedAlerts   uint64                 `json:"degraded_alerts"`
	MergedQueries    uint64                 `json:"merged_queries"`
	Sources          map[string]SourceStats `json:"sources,omitempty"`
}

// StatsNow snapshots the router counters.
func (rt *Router) StatsNow() Stats {
	m := &rt.metrics
	return Stats{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Replicas:         rt.cfg.Replicas,
		SourceShareLines: rt.cfg.SourceShareLines,
		BatchesOffered:   m.batchesOffered.Load(),
		BatchesAccepted:  m.batchesAccepted.Load(),
		BatchesShed:      m.batchesShed.Load(),
		BatchesFailed:    m.batchesFailed.Load(),
		BatchesRejected:  m.batchesRejected.Load(),
		LinesOffered:     m.linesOffered.Load(),
		LinesDelivered:   m.linesDelivered.Load(),
		LinesShed:        m.linesShed.Load(),
		LinesFailed:      m.linesFailed.Load(),
		SubBatches:       m.subBatches.Load(),
		DeliverRetries:   m.deliverRetries.Load(),
		DupsAbsorbed:     m.dupsAbsorbed.Load(),
		ReadFanouts:      m.readFanouts.Load(),
		ReadErrors:       m.readErrors.Load(),
		MergedAlerts:     m.mergedAlerts.Load(),
		DegradedAlerts:   m.degradedAlerts.Load(),
		MergedQueries:    m.mergedQueries.Load(),
		Sources:          rt.sourceStats(),
	}
}

// sourceStats snapshots every source's account (nil when none seen).
func (rt *Router) sourceStats() map[string]SourceStats {
	rt.srcMu.Lock()
	defer rt.srcMu.Unlock()
	if len(rt.sources) == 0 {
		return nil
	}
	out := make(map[string]SourceStats, len(rt.sources))
	for name, src := range rt.sources {
		out[name] = SourceStats{
			OfferedBatches:  src.offeredBatches.Load(),
			AcceptedBatches: src.acceptedBatches.Load(),
			ShedBatches:     src.shedBatches.Load(),
			FailedBatches:   src.failedBatches.Load(),
			OfferedLines:    src.offeredLines.Load(),
			AcceptedLines:   src.acceptedLines.Load(),
			ShedLines:       src.shedLines.Load(),
			FailedLines:     src.failedLines.Load(),
			InflightLines:   src.inflight.Load(),
		}
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	_, _ = jsonw.Write(w, rt.StatsNow()) // headers are out: a failed body write has no recovery
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleMetrics renders the counters in Prometheus text exposition
// format, mirroring titand's /metrics idiom.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(metricsText(rt.StatsNow())))
}

// metricsText renders one /stats snapshot as /metrics: every numeric
// figure of Stats and of each SourceStats is a series
// (TestRouterStatsMetricsParity).
func metricsText(st Stats) string {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("titanrouter_uptime_seconds", "Seconds since the router started.", st.UptimeSeconds)
	gauge("titanrouter_replicas", "Configured replica count.", float64(len(st.Replicas)))
	gauge("titanrouter_source_share_lines", "Lines one source may hold in flight before QoS sheds it.", float64(st.SourceShareLines))
	counter("titanrouter_batches_offered_total", "Client batches offered to /ingest.", st.BatchesOffered)
	counter("titanrouter_batches_accepted_total", "Batches fully delivered to replicas.", st.BatchesAccepted)
	counter("titanrouter_batches_shed_total", "Batches shed by per-source QoS.", st.BatchesShed)
	counter("titanrouter_batches_failed_total", "Batches with undelivered lines.", st.BatchesFailed)
	counter("titanrouter_batches_rejected_total", "Malformed or oversized batches.", st.BatchesRejected)
	counter("titanrouter_lines_offered_total", "Lines offered to /ingest.", st.LinesOffered)
	counter("titanrouter_lines_delivered_total", "Lines delivered to replicas.", st.LinesDelivered)
	counter("titanrouter_lines_shed_total", "Lines shed by per-source QoS.", st.LinesShed)
	counter("titanrouter_lines_failed_total", "Lines undelivered within the timeout.", st.LinesFailed)
	counter("titanrouter_sub_batches_total", "Per-replica sub-batches sent.", st.SubBatches)
	counter("titanrouter_deliver_retries_total", "Delivery retries against 429/503/connection errors.", st.DeliverRetries)
	counter("titanrouter_duplicates_absorbed_total", "Retried sub-batches a replica acknowledged as already applied.", st.DupsAbsorbed)
	counter("titanrouter_read_fanouts_total", "Read-side fan-outs.", st.ReadFanouts)
	counter("titanrouter_read_errors_total", "Read-side fan-out failures.", st.ReadErrors)
	counter("titanrouter_merged_alerts_total", "Merged /alerts responses.", st.MergedAlerts)
	counter("titanrouter_degraded_alerts_total", "Merged /alerts responses marked degraded.", st.DegradedAlerts)
	counter("titanrouter_merged_queries_total", "Merged /rollup, /top and /query responses.", st.MergedQueries)
	if len(st.Sources) > 0 {
		names := make([]string, 0, len(st.Sources))
		for name := range st.Sources {
			names = append(names, name)
		}
		sort.Strings(names)
		srcCounter := func(name, help string, value func(SourceStats) uint64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, src := range names {
				fmt.Fprintf(&b, "%s{source=%q} %d\n", name, src, value(st.Sources[src]))
			}
		}
		srcCounter("titanrouter_source_lines_offered_total", "Lines offered per source.",
			func(s SourceStats) uint64 { return s.OfferedLines })
		srcCounter("titanrouter_source_lines_accepted_total", "Lines delivered per source.",
			func(s SourceStats) uint64 { return s.AcceptedLines })
		srcCounter("titanrouter_source_lines_shed_total", "Lines shed per source by QoS.",
			func(s SourceStats) uint64 { return s.ShedLines })
		srcCounter("titanrouter_source_lines_failed_total", "Lines undelivered per source.",
			func(s SourceStats) uint64 { return s.FailedLines })
		srcCounter("titanrouter_source_batches_offered_total", "Batches offered per source.",
			func(s SourceStats) uint64 { return s.OfferedBatches })
		srcCounter("titanrouter_source_batches_accepted_total", "Batches fully delivered per source.",
			func(s SourceStats) uint64 { return s.AcceptedBatches })
		srcCounter("titanrouter_source_batches_shed_total", "Batches shed per source by QoS.",
			func(s SourceStats) uint64 { return s.ShedBatches })
		srcCounter("titanrouter_source_batches_failed_total", "Batches with undelivered lines per source.",
			func(s SourceStats) uint64 { return s.FailedBatches })
		const inflight = "titanrouter_source_inflight_lines"
		fmt.Fprintf(&b, "# HELP %s Lines per source admitted and not yet answered.\n# TYPE %s gauge\n", inflight, inflight)
		for _, src := range names {
			fmt.Fprintf(&b, "%s{source=%q} %d\n", inflight, src, st.Sources[src].InflightLines)
		}
	}
	return b.String()
}
