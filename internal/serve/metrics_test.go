package serve

import (
	"bufio"
	"bytes"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// statSeries names the /metrics series of every numeric or boolean
// Stats field, keyed by the field's /stats JSON name (journal fields by
// "journal." + Go name).
var statSeries = map[string]string{
	"uptime_seconds":            "titand_uptime_seconds",
	"draining":                  "titand_draining",
	"batches_accepted":          "titand_ingest_batches_accepted_total",
	"batches_shed":              "titand_ingest_batches_shed_total",
	"batches_rejected":          "titand_ingest_batches_rejected_total",
	"lines_accepted":            "titand_ingest_lines_total",
	"lines_shed":                "titand_ingest_lines_shed_total",
	"batches_duplicate":         "titand_ingest_batches_duplicate_total",
	"lines_duplicate":           "titand_ingest_lines_duplicate_total",
	"batches_stale_seq":         "titand_ingest_batches_stale_seq_total",
	"alert_feed_complete":       "titand_alert_feed_complete",
	"events_decoded":            "titand_decode_events_total",
	"events_applied":            "titand_events_applied_total",
	"lines_chatter":             "titand_decode_chatter_total",
	"lines_malformed":           "titand_decode_malformed_total",
	"lines_oversized":           "titand_decode_oversized_total",
	"decode_fast_hits":          "titand_decode_fast_hits_total",
	"decode_fast_fallbacks":     "titand_decode_fast_fallbacks_total",
	"alerts_raised":             "titand_alerts_raised_total",
	"warnings_issued":           "titand_warnings_issued_total",
	"queue_depth":               "titand_queue_depth",
	"queue_capacity":            "titand_queue_capacity",
	"nodes_tracked":             "titand_nodes_tracked",
	"cards_tracked":             "titand_cards_tracked",
	"retained_events":           "titand_retained_events",
	"sealed_segments":           "titand_sealed_segments",
	"sealed_events":             "titand_sealed_events",
	"sealed_segment_bytes":      "titand_sealed_segment_bytes",
	"sealed_mapped_bytes":       "titand_sealed_mapped_bytes",
	"compactions":               "titand_compactions_total",
	"compaction_failures":       "titand_compaction_failures_total",
	"compaction_retries":        "titand_compaction_retries_total",
	"events_sealed":             "titand_events_sealed_total",
	"last_compaction_unix":      "titand_last_compaction_timestamp_seconds",
	"heap_inuse_bytes":          "titand_heap_inuse_bytes",
	"degraded":                  "titand_degraded",
	"quarantined_segments":      "titand_quarantined_segments",
	"quarantined_bytes":         "titand_quarantined_bytes",
	"events_lost_to_quarantine": "titand_events_lost_to_quarantine",
	"orphans_removed":           "titand_orphans_removed",
	"sealed_seq":                "titand_sealed_seq",
	"query_node_history":        "titand_query_node_history_total",
	"query_code_history":        "titand_query_code_history_total",
	"query_rollup":              "titand_query_rollup_total",
	"query_top":                 "titand_query_top_total",
	"queries":                   "titand_queries_total",
	"query_errors":              "titand_query_errors_total",
	"query_rows_folded":         "titand_query_rows_folded_total",
	"query_fold_seconds":        "titand_query_fold_seconds_total",
	"query_render_seconds":      "titand_query_render_seconds_total",
	"query_render_bytes":        "titand_query_render_bytes_total",
	"journal.NextSeq":           "titand_journal_next_seq",
	"journal.Appends":           "titand_journal_appends_total",
	"journal.AppendFailures":    "titand_journal_append_failures_total",
	"journal.Syncs":             "titand_journal_syncs_total",
	"journal.Rotations":         "titand_journal_rotations_total",
	"journal.FilesRemoved":      "titand_journal_files_removed_total",
	"journal.Wedged":            "titand_journal_wedged",

	// The stage stopwatches share one series name, a stage label each.
	"ingest_stage_seconds.body_read":  `titand_ingest_stage_seconds_total{stage="body_read"}`,
	"ingest_stage_seconds.decode":     `titand_ingest_stage_seconds_total{stage="decode"}`,
	"ingest_stage_seconds.queue_wait": `titand_ingest_stage_seconds_total{stage="queue_wait"}`,
	"ingest_stage_seconds.journal":    `titand_ingest_stage_seconds_total{stage="journal"}`,
	"ingest_stage_seconds.apply":      `titand_ingest_stage_seconds_total{stage="apply"}`,
	"ingest_stage_seconds.seal":       `titand_ingest_stage_seconds_total{stage="seal"}`,
}

// TestStatsMetricsParity holds /stats and /metrics to one set of
// figures: every numeric or boolean field of Stats renders as a series
// carrying that field's value, and every unlabelled series comes from
// such a field — a counter added to one face only fails here. A nested
// struct renders one series per field (the stage stopwatches: one name,
// a stage label each). The maps are the exceptions by shape:
// events_by_code is /stats only, sources render as source-labelled
// series, and the ingest-latency histogram is /metrics only.
func TestStatsMetricsParity(t *testing.T) {
	st := Stats{Journal: &JournalStats{}}
	want := map[string]float64{}
	next := 2.0 // distinct per field, so a series wired to the wrong field shows
	var fill func(prefix string, v reflect.Value)
	fill = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			name := f.Name
			if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != "" {
				name = tag
			}
			name = prefix + name
			val := next
			switch fv.Kind() {
			case reflect.Bool:
				fv.SetBool(true)
				val = 1
			case reflect.Int, reflect.Int64:
				fv.SetInt(int64(val))
			case reflect.Uint64:
				fv.SetUint(uint64(val))
			case reflect.Float64:
				fv.SetFloat(val)
			case reflect.Pointer:
				fill(name+".", fv.Elem())
				continue
			case reflect.Struct:
				fill(name+".", fv)
				continue
			case reflect.Map:
				continue
			default:
				t.Fatalf("Stats field %s has kind %s; teach this test how it renders", name, fv.Kind())
			}
			next++
			series, ok := statSeries[name]
			if !ok {
				t.Errorf("/stats figure %q has no /metrics series", name)
				continue
			}
			want[series] = val
		}
	}
	fill("", reflect.ValueOf(&st).Elem())

	var buf bytes.Buffer
	if err := newMetrics(time.Now()).write(&buf, st); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, value, _ := strings.Cut(sc.Text(), " ")
		if strings.HasPrefix(name, "#") || strings.Contains(name, "{source=") || strings.HasPrefix(name, "titand_ingest_latency_seconds") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("series line %q: %v", sc.Text(), err)
		}
		got[name] = v
	}
	for series, v := range got {
		if w, ok := want[series]; !ok {
			t.Errorf("/metrics series %s comes from no /stats figure", series)
		} else if v != w {
			t.Errorf("/metrics series %s = %g, its /stats figure is %g", series, v, w)
		}
	}
	for series := range want {
		if _, ok := got[series]; !ok {
			t.Errorf("/metrics is missing series %s", series)
		}
	}
}

// TestHeapInuseTracksMemStats: heap_inuse_bytes comes from
// runtime/metrics (no stop-the-world on a scrape) and must stay the
// figure its name and help text promise — within a factor of two of
// MemStats.HeapInuse, the two reads being a moment apart.
func TestHeapInuseTracksMemStats(t *testing.T) {
	live := make([]byte, 8<<20) // so the heap is not all noise
	got := float64(heapInuse())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(live)
	if want := float64(ms.HeapInuse); got < want/2 || got > 2*want {
		t.Errorf("heap_inuse_bytes reads %.0f, MemStats.HeapInuse %.0f", got, want)
	}
}
