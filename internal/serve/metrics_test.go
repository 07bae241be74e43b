package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"titanre/internal/jsonw"
)

// fillDistinct sets every number under v to a distinct multiple of
// 100,000 (so a series wired to the wrong field shows, and an integer
// spelled %g reads differently from one spelled %d), every bool to true
// and every slice to a distinct length, allocating struct pointers on the
// way; maps are the caller's.
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

// pinnedStats is the distinct-value fill with the journal present, one
// source and a two-observation latency histogram: the input the goldens
// under testdata/ were rendered from.
func pinnedStats() (Stats, *metrics) {
	var st Stats
	k := 0
	fillDistinct(reflect.ValueOf(&st).Elem(), &k)
	var src SourceStats
	fillDistinct(reflect.ValueOf(&src).Elem(), &k)
	st.Sources = map[string]SourceStats{"feed": src}
	st.EventsByCode = map[string]int{"XID 48": 7}
	m := newMetrics(time.Unix(0, 0))
	m.observeLatency(3 * time.Millisecond)
	m.observeLatency(2 * time.Second)
	return st, m
}

// sample is one series of a /metrics page.
type sample struct {
	family, help, typ string
	labels            map[string]string // unescaped
	value             float64
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseExposition reads a /metrics page as strictly as a scraper does,
// keyed by series as spelled: metric and label names match the grammar,
// each family has one HELP and one TYPE before its samples and its
// samples are contiguous, label values use only the \\, \" and \n
// escapes and are valid UTF-8, every value parses and no series repeats.
func parseExposition(page string) (map[string]sample, error) {
	out := map[string]sample{}
	help, typ := map[string]string{}, map[string]string{}
	closed := map[string]bool{} // families whose samples are behind us
	last := ""                  // family of the previous sample
	for i, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		bad := func(why string) error { return fmt.Errorf("line %d %q: %s", i+1, line, why) }
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			kind, rest, _ := strings.Cut(rest, " ")
			name, text, _ := strings.Cut(rest, " ")
			seen := map[string]map[string]string{"HELP": help, "TYPE": typ}[kind]
			switch _, dup := seen[name]; {
			case seen == nil:
				return nil, bad("a comment that is neither HELP nor TYPE")
			case !metricName.MatchString(name):
				return nil, bad("bad metric name")
			case dup:
				return nil, bad("second " + kind)
			case closed[name] || last == name:
				return nil, bad(kind + " after the family's samples")
			case kind == "TYPE" && !slices.Contains([]string{"counter", "gauge", "histogram"}, text):
				return nil, bad("unknown type")
			}
			seen[name] = text
			continue
		}
		end := strings.IndexAny(line, "{ ")
		if end < 0 {
			return nil, bad("no value")
		}
		s := sample{family: line[:end], labels: map[string]string{}}
		if !metricName.MatchString(s.family) {
			return nil, bad("bad metric name")
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.family, suffix); ok && typ[base] == "histogram" {
				s.family = base
			}
		}
		s.help, s.typ = help[s.family], typ[s.family]
		if _, ok := help[s.family]; !ok || s.typ == "" {
			return nil, bad("sample before its family's HELP and TYPE")
		}
		if s.family != last {
			if closed[s.family] {
				return nil, bad("family's samples are not contiguous")
			}
			closed[last], last = true, s.family
		}
		rest := line[end:]
		if rest[0] == '{' {
			j := 1
			for {
				eq := strings.IndexByte(rest[j:], '=')
				if eq < 0 || !labelName.MatchString(rest[j:j+eq]) || !strings.HasPrefix(rest[j+eq+1:], `"`) {
					return nil, bad("bad label")
				}
				key := rest[j : j+eq]
				var val strings.Builder
				for j += eq + 2; j < len(rest) && rest[j] != '"'; j++ {
					if rest[j] == '\\' {
						j++
						esc := map[byte]byte{'\\': '\\', '"': '"', 'n': '\n'}
						if j == len(rest) || esc[rest[j]] == 0 {
							return nil, bad("illegal escape in label value")
						}
						val.WriteByte(esc[rest[j]])
						continue
					}
					val.WriteByte(rest[j])
				}
				if j == len(rest) {
					return nil, bad("unterminated label value")
				}
				if !utf8.ValidString(val.String()) {
					return nil, bad("label value is not UTF-8")
				}
				s.labels[key] = val.String()
				j++
				if j < len(rest) && rest[j] == ',' {
					j++
					continue
				}
				if j == len(rest) || rest[j] != '}' {
					return nil, bad("unterminated label set")
				}
				rest = rest[j+1:]
				break
			}
		}
		v, ok := strings.CutPrefix(rest, " ")
		var err error
		if s.value, err = strconv.ParseFloat(v, 64); !ok || err != nil {
			return nil, bad("bad value")
		}
		series := strings.TrimSuffix(line, rest)
		if _, dup := out[series]; dup {
			return nil, bad("series repeated")
		}
		out[series] = s
	}
	return out, nil
}

// TestMetricsPinned: on the distinct-value fill, /metrics carries the
// same families, HELP and TYPE lines, series and values as the goldens
// rendered before the series were declared by tags — only series order
// and the spelling of integer gauges (5e+06 → 5000000) may differ — and
// /stats renders byte-identically. Integers are exact past 2^53.
func TestMetricsPinned(t *testing.T) {
	st, m := pinnedStats()
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseExposition(string(golden))
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	page := m.appendMetrics(nil, st)
	got, err := parseExposition(string(page))
	if err != nil {
		t.Fatal(err)
	}
	for series, w := range want {
		if g, ok := got[series]; !ok {
			t.Errorf("series %s is gone", series)
		} else if g.family != w.family || g.help != w.help || g.typ != w.typ || g.value != w.value {
			t.Errorf("series %s = %+v, was %+v", series, g, w)
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

	st.SealedSeq, st.Journal.NextSeq = 1<<62+1, 1<<53+1
	page = m.appendMetrics(nil, st)
	for _, line := range []string{"titand_sealed_seq 4611686018427387905\n", "titand_journal_next_seq 9007199254740993\n"} {
		if !bytes.Contains(page, []byte(line)) {
			t.Errorf("/metrics lacks the exact %q", line)
		}
	}
}

// TestStatsMetricsParity holds /stats and /metrics to one set of
// figures without naming any: on the distinct-value fill, the numbers
// /stats serves (a bool as 0/1, a list as its length) and the values
// /metrics carries outside the latency histogram are the same multiset.
// events_by_code is the one /stats-only figure.
func TestStatsMetricsParity(t *testing.T) {
	st, m := pinnedStats()
	var stats bytes.Buffer
	if _, err := jsonw.Write(&stats, st); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(stats.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "events_by_code")
	want := figures(nil, doc)
	page, err := parseExposition(string(m.appendMetrics(nil, st)))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, s := range page {
		if s.typ != "histogram" {
			got = append(got, s.value)
		}
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("/metrics values %v\n/stats figures %v", got, want)
	}
}

// figures appends every number under a decoded JSON value.
func figures(dst []float64, v any) []float64 {
	switch v := v.(type) {
	case float64:
		return append(dst, v)
	case bool:
		if v {
			return append(dst, 1)
		}
		return append(dst, 0)
	case []any:
		return append(dst, float64(len(v)))
	case map[string]any:
		for _, e := range v {
			dst = figures(dst, e)
		}
	}
	return dst
}

// hostileSources are X-Titan-Source names a client may send, each with
// the label spelling the text exposition format reads back as that name:
// only backslash, quote and newline are escaped, and invalid UTF-8 is
// U+FFFD. Go's %q spelled the first two with escapes the format does not
// have, and a strict scraper rejected the whole page.
var hostileSources = []struct{ name, label string }{
	{"a\tb", "a\tb"},
	{"feed\x80", "feed\uFFFD"},
	{"zero\u200bwidth", "zero\u200bwidth"},
	{`say "hi"`, `say \"hi\"`},
	{`back\slash`, `back\\slash`},
}

// TestMetricsSourceNames sends every hostile source name through titand's
// handler: the /metrics page still parses strictly and books each name's
// line under the label that reads back as it.
func TestMetricsSourceNames(t *testing.T) {
	s := testServer(t, DefaultConfig())
	line := encodeLog(t, simEvents()[:1])
	for _, src := range hostileSources {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(line))
		req.Header.Set(SourceHeader, src.name)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST as %q: status %d", src.name, rec.Code)
		}
	}
	quiesce(t, s)
	page := serveGet(t, s, "/metrics")
	if _, err := parseExposition(string(page)); err != nil {
		t.Fatal(err)
	}
	for _, src := range hostileSources {
		if want := fmt.Sprintf("titand_source_lines_offered_total{source=\"%s\"} 1\n", src.label); !bytes.Contains(page, []byte(want)) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// FuzzMetricsExposition: whatever two source names a client picks, the
// /metrics page of the distinct-value fill parses strictly, and each
// name's series carries its books under a label that reads back as the
// name the books are under.
func FuzzMetricsExposition(f *testing.F) {
	for _, src := range hostileSources {
		f.Add(src.name, "feed")
	}
	f.Add("a\nb", "a\x80")
	f.Add("\x80", "\xff")
	f.Fuzz(func(t *testing.T, a, b string) {
		st, m := pinnedStats()
		st.Sources = map[string]SourceStats{}
		books := map[string]*struct{}{}
		for i, raw := range []string{a, b} {
			name, _ := SourceSlot(books, raw)
			st.Sources[name] = SourceStats{OfferedLines: uint64(i + 1)}
		}
		page, err := parseExposition(string(m.appendMetrics(nil, st)))
		if err != nil {
			t.Fatal(err)
		}
		offered := map[string]float64{}
		for _, s := range page {
			if s.family == "titand_source_lines_offered_total" {
				offered[s.labels["source"]] = s.value
			}
		}
		if len(offered) != len(st.Sources) {
			t.Fatalf("%d books, %d series", len(st.Sources), len(offered))
		}
		for name, books := range st.Sources {
			if offered[name] != float64(books.OfferedLines) {
				t.Errorf("source %q: series reads %v, books %d", name, offered[name], books.OfferedLines)
			}
		}
	})
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
