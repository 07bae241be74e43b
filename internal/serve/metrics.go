package serve

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Operational counters, gathered by StatsNow and exported in the
// Prometheus text exposition format at /metrics. Everything is a plain
// atomic so the hot ingest path pays one uncontended add per bookkeeping
// event; no external metrics dependency is required (the container
// bakes in nothing beyond the standard library).

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
	rowsVisited      atomic.Uint64 // rows those folds handed their kernels, every pass
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
// events_applied it is that stage's time per event. On /metrics it is one
// family, a series per stage labelled by its JSON name.
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
// took in, the rows its kernels read to count them, and the wall time
// since start.
func (m *metrics) observeFold(start time.Time, rows, visited int64) {
	m.foldNanos.Add(uint64(time.Since(start)))
	m.rowsFolded.Add(uint64(rows))
	m.rowsVisited.Add(uint64(visited))
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

// metricsPrefix starts every titand series name.
const metricsPrefix = "titand_"

// appendMetrics renders st — the same gather /stats serves — as /metrics:
// the AppendMetrics walk over its tags, then the ingest-latency
// histogram, the one family declared here because /stats does not carry
// it.
func (m *metrics) appendMetrics(b []byte, st Stats) []byte {
	b = AppendMetrics(b, metricsPrefix, st)
	const name = metricsPrefix + "ingest_latency_seconds"
	b = fmt.Appendf(b, "# HELP %s Ingest request latency (admission to response).\n# TYPE %s histogram\n", name, name)
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += m.latBkt[i].Load()
		b = fmt.Appendf(b, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum)
	}
	cum += m.latBkt[len(latencyBuckets)].Load()
	b = fmt.Appendf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	b = fmt.Appendf(b, "%s_sum %g\n", name, float64(m.latSum.Load())/1e6)
	return fmt.Appendf(b, "%s_count %d\n", name, m.latCount.Load())
}

// AppendMetrics appends doc, a /stats document, to b as the Prometheus
// text exposition. The fields' tags are the only declaration of a
// figure's series; every name is prefix + the tag:
//
//   - prom:"name" on a number, a bool (0/1) or a slice (its length) is
//     one series;
//   - prom:"" on a struct pointer renders its fields in place (nil:
//     nothing);
//   - prom:"name{key}" on a struct is one family, a series per field
//     labelled key=<the field's JSON name>;
//   - prom:"{key}" on a map of structs is one family per element field,
//     a series per entry labelled key=<the map key>, keys sorted;
//   - help:"…" is the family's HELP text.
//
// A name ending in _total is a counter, anything else a gauge. A field
// with no prom tag is /stats-only. Integers print exactly (%d), floats
// as %g.
func AppendMetrics(b []byte, prefix string, doc any) []byte {
	v := reflect.ValueOf(doc)
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		tag, ok := f.Tag.Lookup("prom")
		if !ok {
			continue
		}
		name, key, labelled := strings.Cut(strings.TrimSuffix(tag, "}"), "{")
		name = prefix + name
		switch help := f.Tag.Get("help"); {
		case fv.Kind() == reflect.Pointer:
			if !fv.IsNil() {
				b = AppendMetrics(b, prefix, fv.Elem().Interface())
			}
		case !labelled:
			b = appendSeries(appendFamily(b, name, help), name, fv)
		case fv.Kind() == reflect.Map:
			keys := fv.MapKeys()
			slices.SortFunc(keys, func(x, y reflect.Value) int { return strings.Compare(x.String(), y.String()) })
			et := fv.Type().Elem()
			for j := 0; j < et.NumField() && len(keys) > 0; j++ {
				name := name + et.Field(j).Tag.Get("prom")
				b = appendFamily(b, name, et.Field(j).Tag.Get("help"))
				for _, k := range keys {
					b = appendSeries(b, name+labelSet(key, k.String()), fv.MapIndex(k).Field(j))
				}
			}
		default:
			b = appendFamily(b, name, help)
			for j := 0; j < fv.NumField(); j++ {
				field, _, _ := strings.Cut(fv.Type().Field(j).Tag.Get("json"), ",")
				b = appendSeries(b, name+labelSet(key, field), fv.Field(j))
			}
		}
	}
	return b
}

// appendFamily appends a family's HELP and TYPE lines.
func appendFamily(b []byte, name, help string) []byte {
	typ := "gauge"
	if strings.HasSuffix(name, "_total") {
		typ = "counter"
	}
	return fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// appendSeries appends one sample: the series, labels included, and v.
func appendSeries(b []byte, series string, v reflect.Value) []byte {
	b = append(append(b, series...), ' ')
	switch v.Kind() {
	case reflect.Bool:
		b = append(b, '0')
		if v.Bool() {
			b[len(b)-1] = '1'
		}
	case reflect.Int, reflect.Int64:
		b = strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint64:
		b = strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Float64:
		b = fmt.Appendf(b, "%g", v.Float())
	case reflect.Slice:
		b = strconv.AppendInt(b, int64(v.Len()), 10)
	default:
		panic("serve: no /metrics rendering for a " + v.Kind().String())
	}
	return append(b, '\n')
}

// labelEscaper writes a label value the way the text exposition format
// reads it back: only backslash, double quote and newline are escaped.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelSet renders {key="value"}. The value may be client-chosen (an
// X-Titan-Source name), so invalid UTF-8 is coerced to U+FFFD.
func labelSet(key, value string) string {
	return "{" + key + `="` + labelEscaper.Replace(strings.ToValidUTF8(value, "\uFFFD")) + `"}`
}
