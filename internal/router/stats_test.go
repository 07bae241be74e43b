package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"titanre/internal/jsonw"
	"titanre/internal/serve"
)

// fillDistinct sets every number under v to a distinct multiple of
// 100,000, every bool to true and every slice to a distinct length (as
// serve's test of the same name does); maps are the caller's.
func fillDistinct(v reflect.Value, k *int) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		*k++
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(*k) * 100_000)
		case reflect.Uint64:
			f.SetUint(uint64(*k) * 100_000)
		case reflect.Float64:
			f.SetFloat(float64(*k) * 100_000)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), *k, *k))
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
			fillDistinct(f.Elem(), k)
		case reflect.Struct:
			fillDistinct(f, k)
		}
	}
}

// pinnedStats is the distinct-value fill with one source: the input the
// goldens under testdata/ were rendered from.
func pinnedStats() Stats {
	var st Stats
	k := 0
	fillDistinct(reflect.ValueOf(&st).Elem(), &k)
	var src SourceStats
	fillDistinct(reflect.ValueOf(&src).Elem(), &k)
	st.Sources = map[string]SourceStats{"feed": src}
	return st
}

// seriesOf reads a /metrics page into series → "family|HELP|TYPE|value",
// the value as a number; serve's parseExposition is the strict reading of
// the same writer's output.
func seriesOf(t *testing.T, page string) map[string]string {
	t.Helper()
	out := map[string]string{}
	meta := map[string]string{}
	family := ""
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			kind, rest, _ := strings.Cut(rest, " ")
			family, _, _ = strings.Cut(rest, " ")
			meta[family] += kind + " " + rest + "|"
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		series, value := line[:max(cut, 0)], line[cut+1:]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("series line %q: %v", line, err)
		}
		out[series] = fmt.Sprintf("%s|%s%g", family, meta[family], v)
	}
	return out
}

// TestMetricsPinned: on the distinct-value fill, the router's /metrics
// carries the same families, HELP and TYPE lines, series and values as
// the golden rendered before the series were declared by tags — only
// series order and the spelling of integer gauges may differ — and
// /stats renders byte-identically.
func TestMetricsPinned(t *testing.T) {
	st := pinnedStats()
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := seriesOf(t, string(golden))
	got := seriesOf(t, string(serve.AppendMetrics(nil, metricsPrefix, st)))
	for series, w := range want {
		if g := got[series]; g != w {
			t.Errorf("series %s = %q, was %q", series, g, w)
		}
	}
	for series := range got {
		if _, ok := want[series]; !ok {
			t.Errorf("series %s is new", series)
		}
	}

	var stats bytes.Buffer
	if _, err := jsonw.Write(&stats, st); err != nil {
		t.Fatal(err)
	}
	if golden, err := os.ReadFile("testdata/stats.golden"); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(stats.Bytes(), golden) {
		t.Errorf("/stats moved:\n%s\nwant:\n%s", stats.Bytes(), golden)
	}
}

// TestRouterStatsMetricsParity holds the router's /stats and /metrics to
// one set of figures without naming any, as serve's
// TestStatsMetricsParity does titand's: on the distinct-value fill, the
// numbers /stats serves (the replica list as its length) and the values
// /metrics carries are the same multiset.
func TestRouterStatsMetricsParity(t *testing.T) {
	st := pinnedStats()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var want []float64
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case float64:
			want = append(want, v)
		case []any:
			want = append(want, float64(len(v)))
		case map[string]any:
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(doc)
	var got []float64
	for _, s := range seriesOf(t, string(serve.AppendMetrics(nil, metricsPrefix, st))) {
		v, _ := strconv.ParseFloat(s[strings.LastIndexByte(s, '|')+1:], 64)
		got = append(got, v)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("/metrics values %v\n/stats figures %v", got, want)
	}
}

// TestRouterMetricsSourceNames sends client-chosen source names a %q
// label spelling broke through the router: each is booked under the
// label the text exposition format reads back as it (only backslash,
// quote and newline escaped, invalid UTF-8 as U+FFFD).
func TestRouterMetricsSourceNames(t *testing.T) {
	replica := serve.NewServer(serve.DefaultConfig())
	back := httptest.NewServer(replica.Handler())
	t.Cleanup(func() {
		back.Close()
		if err := replica.Shutdown(context.Background()); err != nil {
			t.Errorf("replica shutdown: %v", err)
		}
	})
	rt, err := New(Config{Replicas: []string{back.URL}})
	if err != nil {
		t.Fatal(err)
	}
	line := encodeLog(t, clusterSim()[:1])
	sources := []struct{ name, label string }{
		{"a\tb", "a\tb"},
		{"feed\x80", "feed\uFFFD"},
		{"zero\u200bwidth", "zero\u200bwidth"},
		{`say "hi"`, `say \"hi\"`},
		{`back\slash`, `back\\slash`},
	}
	for _, src := range sources {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(line))
		req.Header.Set(serve.SourceHeader, src.name)
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST as %q: status %d: %s", src.name, rec.Code, rec.Body)
		}
	}
	metrics, _ := get(t, rt.Handler(), "/metrics")
	for _, src := range sources {
		if want := fmt.Sprintf("titanrouter_source_lines_offered_total{source=\"%s\"} 1\n", src.label); !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
