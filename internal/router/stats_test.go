package router

import (
	"bufio"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// statSeries names the /metrics series of every numeric Stats field and
// sourceSeries of every SourceStats field, keyed by /stats JSON name.
var (
	statSeries = map[string]string{
		"uptime_seconds":      "titanrouter_uptime_seconds",
		"replicas":            "titanrouter_replicas",
		"source_share_lines":  "titanrouter_source_share_lines",
		"batches_offered":     "titanrouter_batches_offered_total",
		"batches_accepted":    "titanrouter_batches_accepted_total",
		"batches_shed":        "titanrouter_batches_shed_total",
		"batches_failed":      "titanrouter_batches_failed_total",
		"batches_rejected":    "titanrouter_batches_rejected_total",
		"lines_offered":       "titanrouter_lines_offered_total",
		"lines_delivered":     "titanrouter_lines_delivered_total",
		"lines_shed":          "titanrouter_lines_shed_total",
		"lines_failed":        "titanrouter_lines_failed_total",
		"sub_batches":         "titanrouter_sub_batches_total",
		"deliver_retries":     "titanrouter_deliver_retries_total",
		"duplicates_absorbed": "titanrouter_duplicates_absorbed_total",
		"read_fanouts":        "titanrouter_read_fanouts_total",
		"read_errors":         "titanrouter_read_errors_total",
		"merged_alerts":       "titanrouter_merged_alerts_total",
		"degraded_alerts":     "titanrouter_degraded_alerts_total",
		"merged_queries":      "titanrouter_merged_queries_total",
	}
	sourceSeries = map[string]string{
		"offered_batches":  "titanrouter_source_batches_offered_total",
		"accepted_batches": "titanrouter_source_batches_accepted_total",
		"shed_batches":     "titanrouter_source_batches_shed_total",
		"failed_batches":   "titanrouter_source_batches_failed_total",
		"offered_lines":    "titanrouter_source_lines_offered_total",
		"accepted_lines":   "titanrouter_source_lines_accepted_total",
		"shed_lines":       "titanrouter_source_lines_shed_total",
		"failed_lines":     "titanrouter_source_lines_failed_total",
		"inflight_lines":   "titanrouter_source_inflight_lines",
	}
)

// TestRouterStatsMetricsParity holds the router's /stats and /metrics to
// one set of figures, as serve's TestStatsMetricsParity does titand's:
// every numeric field of Stats (the replica list by its length) and of
// SourceStats renders as a series carrying that field's value, and every
// series comes from such a field — a counter added to one face only
// fails here.
func TestRouterStatsMetricsParity(t *testing.T) {
	want := map[string]float64{}
	next := 2.0 // distinct per field, so a series wired to the wrong field shows
	fill := func(v reflect.Value, series map[string]string, label string) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			val := next
			switch fv.Kind() {
			case reflect.Int, reflect.Int64:
				fv.SetInt(int64(val))
			case reflect.Uint64:
				fv.SetUint(uint64(val))
			case reflect.Float64:
				fv.SetFloat(val)
			case reflect.Slice:
				fv.Set(reflect.MakeSlice(fv.Type(), int(val), int(val)))
			case reflect.Map:
				continue
			default:
				t.Fatalf("field %s has kind %s; teach this test how it renders", name, fv.Kind())
			}
			next++
			s, ok := series[name]
			if !ok {
				t.Errorf("/stats figure %q has no /metrics series", name)
				continue
			}
			want[s+label] = val
		}
	}
	var st Stats
	fill(reflect.ValueOf(&st).Elem(), statSeries, "")
	var src SourceStats
	fill(reflect.ValueOf(&src).Elem(), sourceSeries, `{source="feed"}`)
	st.Sources = map[string]SourceStats{"feed": src}

	got := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(metricsText(st)))
	for sc.Scan() {
		name, value, _ := strings.Cut(sc.Text(), " ")
		if strings.HasPrefix(name, "#") {
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
