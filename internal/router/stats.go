package router

import (
	"net/http"
	"time"

	"titanre/internal/jsonw"
	"titanre/internal/serve"
)

// Router observability: /stats (JSON), /metrics (Prometheus text) and
// /healthz. The per-source accounting is the QoS contract made
// auditable — for every source, offered == accepted + shed + failed in
// lines and in batches, exactly, which the source-isolation test
// checks against the load generator's own books.

// SourceStats is one feed's exact account at the router.
type SourceStats struct {
	OfferedBatches  uint64 `json:"offered_batches" prom:"source_batches_offered_total" help:"Batches offered per source."`
	AcceptedBatches uint64 `json:"accepted_batches" prom:"source_batches_accepted_total" help:"Batches fully delivered per source."`
	ShedBatches     uint64 `json:"shed_batches" prom:"source_batches_shed_total" help:"Batches shed per source by QoS."`
	FailedBatches   uint64 `json:"failed_batches" prom:"source_batches_failed_total" help:"Batches with undelivered lines per source."`
	OfferedLines    uint64 `json:"offered_lines" prom:"source_lines_offered_total" help:"Lines offered per source."`
	AcceptedLines   uint64 `json:"accepted_lines" prom:"source_lines_accepted_total" help:"Lines delivered per source."`
	ShedLines       uint64 `json:"shed_lines" prom:"source_lines_shed_total" help:"Lines shed per source by QoS."`
	FailedLines     uint64 `json:"failed_lines" prom:"source_lines_failed_total" help:"Lines undelivered per source."`
	InflightLines   int64  `json:"inflight_lines" prom:"source_inflight_lines" help:"Lines per source admitted and not yet answered."`
}

// Stats is the GET /stats document; /metrics renders the same value
// through serve.AppendMetrics, so each field's tags are the only
// declaration of its series.
type Stats struct {
	UptimeSeconds    float64                `json:"uptime_seconds" prom:"uptime_seconds" help:"Seconds since the router started."`
	Replicas         []string               `json:"replicas" prom:"replicas" help:"Configured replica count."`
	SourceShareLines int                    `json:"source_share_lines" prom:"source_share_lines" help:"Lines one source may hold in flight before QoS sheds it."`
	BatchesOffered   uint64                 `json:"batches_offered" prom:"batches_offered_total" help:"Client batches offered to /ingest."`
	BatchesAccepted  uint64                 `json:"batches_accepted" prom:"batches_accepted_total" help:"Batches fully delivered to replicas."`
	BatchesShed      uint64                 `json:"batches_shed" prom:"batches_shed_total" help:"Batches shed by per-source QoS."`
	BatchesFailed    uint64                 `json:"batches_failed" prom:"batches_failed_total" help:"Batches with undelivered lines."`
	BatchesRejected  uint64                 `json:"batches_rejected" prom:"batches_rejected_total" help:"Malformed or oversized batches."`
	LinesOffered     uint64                 `json:"lines_offered" prom:"lines_offered_total" help:"Lines offered to /ingest."`
	LinesDelivered   uint64                 `json:"lines_delivered" prom:"lines_delivered_total" help:"Lines delivered to replicas."`
	LinesShed        uint64                 `json:"lines_shed" prom:"lines_shed_total" help:"Lines shed by per-source QoS."`
	LinesFailed      uint64                 `json:"lines_failed" prom:"lines_failed_total" help:"Lines undelivered within the timeout."`
	SubBatches       uint64                 `json:"sub_batches" prom:"sub_batches_total" help:"Per-replica sub-batches sent."`
	DeliverRetries   uint64                 `json:"deliver_retries" prom:"deliver_retries_total" help:"Delivery retries against 429/503/connection errors."`
	DupsAbsorbed     uint64                 `json:"duplicates_absorbed" prom:"duplicates_absorbed_total" help:"Retried sub-batches a replica acknowledged as already applied."`
	ReadFanouts      uint64                 `json:"read_fanouts" prom:"read_fanouts_total" help:"Read-side fan-outs."`
	ReadErrors       uint64                 `json:"read_errors" prom:"read_errors_total" help:"Read-side fan-out failures."`
	MergedAlerts     uint64                 `json:"merged_alerts" prom:"merged_alerts_total" help:"Merged /alerts responses."`
	DegradedAlerts   uint64                 `json:"degraded_alerts" prom:"degraded_alerts_total" help:"Merged /alerts responses marked degraded."`
	MergedQueries    uint64                 `json:"merged_queries" prom:"merged_queries_total" help:"Merged /rollup, /top and /query responses."`
	Sources          map[string]SourceStats `json:"sources,omitempty" prom:"{source}"`
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

// handleMetrics renders the /stats snapshot as Prometheus text, through
// the writer titand's /metrics uses.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(serve.AppendMetrics(nil, metricsPrefix, rt.StatsNow()))
}

// metricsPrefix starts every titanrouter series name.
const metricsPrefix = "titanrouter_"
