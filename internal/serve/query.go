package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"titanre/internal/console"
	"titanre/internal/jsonw"
	"titanre/internal/store"
	"titanre/internal/titanql"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// The fleet-wide query endpoints — the paper's aggregate artifacts
// (events/hour by code, per-cabinet heatmaps, top-offender lists)
// served live off the columnar store:
//
//	GET /nodes/{cname}/history?since=&until=
//	GET /codes/{xid}/history?since=&until=&limit=
//	GET /rollup?by=code,cabinet&bucket=1h&code=&cabinet=&cage=&node=&since=&until=
//	GET /top?k=20&by=node|serial|code&code=&cabinet=&cage=&node=&since=&until=
//	GET /query?q=<titanql expression>
//
// All read one consistent (sealed segments, retained tail) snapshot via
// historyView. The two histories list events and share scanHistory; the
// three aggregates are "parse the parameters, run the store's one fold,
// write the accumulator" (writeAcc) — segment columns streamed without
// materializing events, the retained tail folded through the identical
// kernel — so their answers byte-match the batch core pipeline
// computing the same aggregate over the same stream.

// CodeHistoryEvent is one event in a fleet-wide code history.
type CodeHistoryEvent struct {
	Time   time.Time `json:"time"`
	Node   string    `json:"node"`
	Serial string    `json:"serial,omitempty"`
	Page   int32     `json:"page"`
	Job    int64     `json:"job,omitempty"`
}

// CodeHistory is the GET /codes/{xid}/history document.
type CodeHistory struct {
	Code      string             `json:"code"`
	Sealed    int                `json:"sealed_events"`
	Retained  int                `json:"retained_events"`
	Truncated bool               `json:"truncated,omitempty"`
	Events    []CodeHistoryEvent `json:"events"`
}

// AppendJSON renders the document as the indented JSON encoding/json
// writes for it (events are never nil: the handler makes the slice).
func (h CodeHistory) AppendJSON(dst []byte) []byte { return jsonw.Append(dst, h) }

// WriteJSON writes the document as one value.
func (h CodeHistory) WriteJSON(w *jsonw.W) {
	w.Obj()
	w.Key("code").Str(h.Code)
	w.Key("sealed_events").Int(int64(h.Sealed))
	w.Key("retained_events").Int(int64(h.Retained))
	if h.Truncated {
		w.Key("truncated").Any(true)
	}
	w.Key("events").Arr()
	for i := range h.Events {
		e := &h.Events[i]
		writeEvent(w, e.Time, "node", e.Node, e.Serial, e.Page, e.Job)
	}
	w.EndArr()
	w.EndObj()
}

// scanHistory lists the events matching p in arrival order — the read
// both history endpoints serve — materializing at most limit of them
// (limit < 0: all) while still counting every match. Sealed segments go
// through the store's shared ScanLimit (a segment outside the time
// bounds is pruned without touching its columns, inside one only the
// rows the predicate bitmap marks are materialized, past the limit the
// bitmap is only counted), then the retained tail through the same
// matcher; the two halves come from one consistent historyView. The tail
// strictly follows the sealed history and is never re-sorted, because
// sorting second-resolution timestamps would diverge same-second order
// from what warm restart and snapshots serve. served is the calling
// endpoint's counter; sealed and retained are how many matches came off
// disk and out of the tail.
func (s *Server) scanHistory(p store.Predicate, limit int, served *atomic.Uint64) (events []console.Event, sealed, retained int, err error) {
	m, err := p.Compile()
	if err != nil {
		return nil, 0, 0, err
	}
	served.Add(1)
	segs, tail := s.historyView()
	for _, seg := range segs {
		var n int
		events, n = seg.ScanLimit(m, events, limit)
		sealed += n
	}
	for _, ev := range tail {
		if m.MatchEvent(ev) {
			retained++
			if limit < 0 || len(events) < limit {
				events = append(events, ev)
			}
		}
	}
	return events, sealed, retained, nil
}

// handleNodeHistory serves a node's full event history (scanHistory
// under an exact-cname predicate, which Compile parses rather than
// globs). Optional ?since= / ?until= take RFC 3339 timestamps.
func (s *Server) handleNodeHistory(w http.ResponseWriter, r *http.Request) {
	cname := r.PathValue("cname")
	node, err := topology.ParseNodeID(cname)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad cname %q: %v", cname, err), http.StatusBadRequest)
		return
	}
	since, until, ok := parseTimeRange(w, r.URL.Query())
	if !ok {
		return
	}
	p := store.Predicate{Node: topology.CNameOf(node), Cage: -1, Since: since, Until: until}
	events, sealed, retained, err := s.scanHistory(p, -1, &s.metrics.queryNodeHistory)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	hist := NodeHistory{
		Node:     p.Node,
		Sealed:   sealed,
		Retained: retained,
		Events:   make([]HistoryEvent, 0, len(events)),
	}
	for _, ev := range events {
		he := HistoryEvent{Time: ev.Time, Code: ev.Code.String(), Page: ev.Page, Job: int64(ev.Job)}
		if ev.Serial != 0 {
			he.Serial = ev.Serial.String()
		}
		hist.Events = append(hist.Events, he)
	}
	s.writeJSON(w, hist)
}

// handleCodeHistory serves every event carrying one code, fleet-wide
// (scanHistory under a one-code predicate: only the positions the code's
// per-segment bitmap marks are touched). Optional ?since=/?until= bound
// the range; ?limit=N caps the response (truncated flag set when it
// bites) and what the scan materializes; the counts stay whole.
func (s *Server) handleCodeHistory(w http.ResponseWriter, r *http.Request) {
	code, err := xid.ParseCode(r.PathValue("xid"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	since, until, ok := parseTimeRange(w, q)
	if !ok {
		return
	}
	limit := -1
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", v), http.StatusBadRequest)
			return
		}
	}
	p := store.Predicate{Codes: []xid.Code{code}, Cage: -1, Since: since, Until: until}
	events, sealed, retained, err := s.scanHistory(p, limit, &s.metrics.queryCodeHistory)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	hist := CodeHistory{
		Code:      code.String(),
		Sealed:    sealed,
		Retained:  retained,
		Truncated: len(events) < sealed+retained,
		Events:    make([]CodeHistoryEvent, 0, len(events)),
	}
	for _, ev := range events {
		he := CodeHistoryEvent{
			Time: ev.Time,
			Node: topology.CNameOf(ev.Node),
			Page: ev.Page,
			Job:  int64(ev.Job),
		}
		if ev.Serial != 0 {
			he.Serial = ev.Serial.String()
		}
		hist.Events = append(hist.Events, he)
	}
	s.writeJSON(w, hist)
}

// handleRollup serves time-bucketed fleet-wide counts — the paper's
// Fig 3 (events/hour by code) and Fig 12 (per-cabinet density) as live
// JSON. ?by= is a comma list of code, cabinet, cage, node (empty = a
// pure time series); ?bucket= is a Go duration ≥ 1s (default 1h);
// ?code= filters to one code (bitmap fast path); ?since=/?until= bound
// the range. Cells are sorted canonically, so the body is byte-stable
// for a given history.
func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := store.RollupSpec{Bucket: time.Hour}
	if v := q.Get("by"); v != "" {
		for _, dim := range strings.Split(v, ",") {
			if !spec.GroupBy(strings.TrimSpace(dim)) {
				http.Error(w, fmt.Sprintf("bad by dimension %q: want code, cabinet, cage or node", dim), http.StatusBadRequest)
				return
			}
		}
	}
	if v := q.Get("bucket"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad bucket %q: %v", v, err), http.StatusBadRequest)
			return
		}
		spec.Bucket = d
	}
	if v := q.Get("code"); v != "" {
		code, err := xid.ParseCode(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec.FilterCode = true
		spec.Code = code
	}
	var ok bool
	if spec.Since, spec.Until, ok = parseTimeRange(w, q); !ok {
		return
	}
	m, ok := parseWhereParams(w, q)
	if !ok {
		return
	}

	segs, tail := s.historyView()
	start := time.Now()
	acc, err := store.ParallelRollupAcc(segs, tail, spec, m, 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.metrics.observeFold(start, acc.Total())
	s.metrics.queryRollup.Add(1)
	writeAcc(s, w, wantPartial(q), acc)
}

// wantPartial reports whether the caller asked with ?partial=1 for the
// raw accumulator instead of the rendered document — the replica side of
// a cluster query, which titanrouter merges with the store Merge kernels
// before rendering once. It is read before the fold: an offender ranking
// that will be exported must keep every key (store.ParallelTopAcc).
func wantPartial(q url.Values) bool { return q.Get("partial") == "1" }

// writeAcc writes a folded query's answer — the document, or the partial
// — and returns the accumulator to the store's pools: both are copies,
// so it is released before the render starts. Every aggregate endpoint
// ends here, so the fork and the release exist in this one place.
func writeAcc[D, P any](s *Server, w http.ResponseWriter, partial bool, acc interface {
	Doc() D
	Partial() P
	Release()
}) {
	var answer any
	if partial {
		answer = acc.Partial()
	} else {
		answer = acc.Doc()
	}
	acc.Release()
	s.writeJSON(w, answer)
}

// parseWhereParams reads the optional ?cabinet= / ?cage= / ?node=
// location filters into a compiled matcher (nil when none are given).
// Decoding goes through titanql.SetPred — the same helper the query
// language uses — so `?cabinet=c3-*` and `cabinet=c3-*` in a /query
// expression accept identical spellings and fail identically.
func parseWhereParams(w http.ResponseWriter, q url.Values) (*store.Matcher, bool) {
	p := store.Predicate{Cage: -1}
	for _, key := range []string{"node", "cabinet", "cage"} {
		v := q.Get(key)
		if v == "" {
			continue
		}
		if err := titanql.SetPred(&p, key, v, false); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return nil, false
		}
	}
	if p.Empty() {
		return nil, true
	}
	m, err := p.Compile()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return m, true
}

// handleQuery serves one composed titanql plan — filter × group ×
// bucket × rank in a single expression:
//
//	GET /query?q=code=48 cabinet=c3-* | by cage | bucket 6h | top 5
//
// The plan is compiled onto the store kernels and executed
// segment-parallel over the same consistent (sealed, tail) snapshot
// every other query endpoint reads; the response carries the canonical
// query spelling and is byte-identical at any worker count.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.queries.Add(1)
	q := r.URL.Query()
	partial := wantPartial(q)
	res, err := s.runQuery(q.Get("q"), partial)
	if err != nil {
		s.metrics.queryErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeAcc(s, w, partial, res)
}

// runQuery parses, compiles and folds one titanql expression over the
// current snapshot; any failure is the client's (a 400).
func (s *Server) runQuery(q string, partial bool) (*titanql.Result, error) {
	if q == "" {
		return nil, errors.New("missing q: want /query?q=<titanql expression>")
	}
	plan, err := titanql.Parse(q)
	if err != nil {
		return nil, err
	}
	compiled, err := plan.Compile()
	if err != nil {
		return nil, err
	}
	segs, tail := s.historyView()
	start := time.Now()
	res, err := compiled.Fold(segs, tail, 0, partial)
	if err == nil {
		s.metrics.observeFold(start, res.Rows())
	}
	return res, err
}

// handleTop serves offender cards ranked by event count — the paper's
// "a handful of cards produce almost all the SBEs" lists, counted
// straight off per-code bitmaps. ?by= is node (default), serial or
// code; ?k= caps the ranking (default 20, 0 = all); ?code= restricts
// the count to one code; ?cabinet=/?cage=/?node= restrict where, as on
// /rollup; ?since=/?until= bound the range.
func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := store.TopSpec{By: store.TopByNode, K: 20}
	if v := q.Get("by"); v != "" {
		spec.By = store.TopBy(v)
	}
	if v := q.Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			http.Error(w, fmt.Sprintf("bad k %q", v), http.StatusBadRequest)
			return
		}
		spec.K = k
	}
	if v := q.Get("code"); v != "" {
		code, err := xid.ParseCode(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec.FilterCode = true
		spec.Code = code
	}
	var ok bool
	if spec.Since, spec.Until, ok = parseTimeRange(w, q); !ok {
		return
	}
	m, ok := parseWhereParams(w, q)
	if !ok {
		return
	}

	partial := wantPartial(q)
	segs, tail := s.historyView()
	start := time.Now()
	acc, err := store.ParallelTopAcc(segs, tail, spec, m, 0, partial)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.metrics.observeFold(start, acc.Total())
	s.metrics.queryTop.Add(1)
	writeAcc(s, w, partial, acc)
}
