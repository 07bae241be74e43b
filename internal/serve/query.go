package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"titanre/internal/console"
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
//	GET /top?k=20&by=node|serial|code&code=&since=&until=
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

// scanHistory lists every event matching p in arrival order — the read
// both history endpoints serve. Sealed segments go through the store's
// shared ScanWhere (a segment outside the time bounds is pruned without
// touching its columns, inside one only the rows the predicate bitmap
// marks are materialized), then the retained tail through the same
// matcher; the two halves come from one consistent historyView. The tail
// strictly follows the sealed history and is never re-sorted, because
// sorting second-resolution timestamps would diverge same-second order
// from what warm restart and snapshots serve. served is the calling
// endpoint's counter; sealed is how many of the events came off disk.
func (s *Server) scanHistory(p store.Predicate, served *atomic.Uint64) (events []console.Event, sealed int, err error) {
	m, err := p.Compile()
	if err != nil {
		return nil, 0, err
	}
	served.Add(1)
	segs, tail := s.historyView()
	for _, seg := range segs {
		events = seg.ScanWhere(m, events)
	}
	sealed = len(events)
	for _, ev := range tail {
		if m.MatchEvent(ev) {
			events = append(events, ev)
		}
	}
	return events, sealed, nil
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
	since, until, ok := parseTimeRange(w, r)
	if !ok {
		return
	}
	p := store.Predicate{Node: topology.CNameOf(node), Cage: -1, Since: since, Until: until}
	events, sealed, err := s.scanHistory(p, &s.metrics.queryNodeHistory)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	hist := NodeHistory{
		Node:     p.Node,
		Sealed:   sealed,
		Retained: len(events) - sealed,
		Events:   make([]HistoryEvent, 0, len(events)),
	}
	for _, ev := range events {
		he := HistoryEvent{Time: ev.Time, Code: ev.Code.String(), Page: ev.Page, Job: int64(ev.Job)}
		if ev.Serial != 0 {
			he.Serial = ev.Serial.String()
		}
		hist.Events = append(hist.Events, he)
	}
	writeJSON(w, hist)
}

// handleCodeHistory serves every event carrying one code, fleet-wide
// (scanHistory under a one-code predicate: only the positions the code's
// per-segment bitmap marks are touched). Optional ?since=/?until= bound
// the range; ?limit=N caps the response (truncated flag set when it
// bites).
func (s *Server) handleCodeHistory(w http.ResponseWriter, r *http.Request) {
	code, err := xid.ParseCode(r.PathValue("xid"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	since, until, ok := parseTimeRange(w, r)
	if !ok {
		return
	}
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", v), http.StatusBadRequest)
			return
		}
	}
	p := store.Predicate{Codes: []xid.Code{code}, Cage: -1, Since: since, Until: until}
	events, sealed, err := s.scanHistory(p, &s.metrics.queryCodeHistory)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	hist := CodeHistory{Code: code.String(), Sealed: sealed, Retained: len(events) - sealed}
	if limit >= 0 && len(events) > limit {
		events = events[:limit]
		hist.Truncated = true
	}
	hist.Events = make([]CodeHistoryEvent, 0, len(events))
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
	writeJSON(w, hist)
}

// handleRollup serves time-bucketed fleet-wide counts — the paper's
// Fig 3 (events/hour by code) and Fig 12 (per-cabinet density) as live
// JSON. ?by= is a comma list of code, cabinet, cage, node (empty = a
// pure time series); ?bucket= is a Go duration ≥ 1s (default 1h);
// ?code= filters to one code (bitmap fast path); ?since=/?until= bound
// the range. Cells are sorted canonically, so the body is byte-stable
// for a given history.
func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request) {
	spec := store.RollupSpec{Bucket: time.Hour}
	if v := r.URL.Query().Get("by"); v != "" {
		for _, dim := range strings.Split(v, ",") {
			switch strings.TrimSpace(dim) {
			case "code":
				spec.ByCode = true
			case "cabinet":
				spec.ByCabinet = true
			case "cage":
				spec.ByCage = true
			case "node":
				spec.ByNode = true
			default:
				http.Error(w, fmt.Sprintf("bad by dimension %q: want code, cabinet, cage or node", dim), http.StatusBadRequest)
				return
			}
		}
	}
	if v := r.URL.Query().Get("bucket"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad bucket %q: %v", v, err), http.StatusBadRequest)
			return
		}
		spec.Bucket = d
	}
	if v := r.URL.Query().Get("code"); v != "" {
		code, err := xid.ParseCode(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec.FilterCode = true
		spec.Code = code
	}
	var ok bool
	if spec.Since, spec.Until, ok = parseTimeRange(w, r); !ok {
		return
	}
	m, ok := parseWhereParams(w, r)
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
	writeAcc(w, r, acc.Doc, acc.Partial)
}

// writeAcc writes a folded query's answer: the rendered document, or —
// when the caller asked with ?partial=1 — the raw accumulator instead,
// the replica side of a cluster query, which titanrouter merges with the
// store Merge kernels before rendering once. Every aggregate endpoint
// ends here, so the fork exists in this one place.
func writeAcc[D, P any](w http.ResponseWriter, r *http.Request, doc func() D, partial func() P) {
	if r.URL.Query().Get("partial") == "1" {
		writeJSON(w, partial())
		return
	}
	writeJSON(w, doc())
}

// parseWhereParams reads the optional ?cabinet= / ?cage= / ?node=
// location filters into a compiled matcher (nil when none are given).
// Decoding goes through titanql.SetPred — the same helper the query
// language uses — so `?cabinet=c3-*` and `cabinet=c3-*` in a /query
// expression accept identical spellings and fail identically.
func parseWhereParams(w http.ResponseWriter, r *http.Request) (*store.Matcher, bool) {
	p := store.Predicate{Cage: -1}
	for _, key := range []string{"node", "cabinet", "cage"} {
		v := r.URL.Query().Get(key)
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
	res, err := s.runQuery(r.URL.Query().Get("q"))
	if err != nil {
		s.metrics.queryErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeAcc(w, r, res.Doc, res.Partial)
}

// runQuery parses, compiles and folds one titanql expression over the
// current snapshot; any failure is the client's (a 400).
func (s *Server) runQuery(q string) (*titanql.Result, error) {
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
	res, err := compiled.Fold(segs, tail, 0)
	if err == nil {
		s.metrics.observeFold(start, res.Rows())
	}
	return res, err
}

// handleTop serves offender cards ranked by event count — the paper's
// "a handful of cards produce almost all the SBEs" lists, counted
// straight off per-code bitmaps. ?by= is node (default), serial or
// code; ?k= caps the ranking (default 20, 0 = all); ?code= restricts
// the count to one code; ?since=/?until= bound the range.
func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	spec := store.TopSpec{By: store.TopByNode, K: 20}
	if v := r.URL.Query().Get("by"); v != "" {
		spec.By = store.TopBy(v)
	}
	if v := r.URL.Query().Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			http.Error(w, fmt.Sprintf("bad k %q", v), http.StatusBadRequest)
			return
		}
		spec.K = k
	}
	if v := r.URL.Query().Get("code"); v != "" {
		code, err := xid.ParseCode(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec.FilterCode = true
		spec.Code = code
	}
	var ok bool
	if spec.Since, spec.Until, ok = parseTimeRange(w, r); !ok {
		return
	}

	segs, tail := s.historyView()
	start := time.Now()
	acc, err := store.ParallelTopAcc(segs, tail, spec, nil, 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.metrics.observeFold(start, acc.Total())
	s.metrics.queryTop.Add(1)
	writeAcc(w, r, acc.Doc, acc.Partial)
}
