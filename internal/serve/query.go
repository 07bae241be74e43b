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
//	GET /nodes/{cname}/history?since=&until=&limit=
//	GET /codes/{xid}/history?since=&until=&limit=
//	GET /rollup?by=code,cabinet&bucket=1h&code=&cabinet=&cage=&node=&since=&until=
//	GET /top?k=20&by=node|serial|code&code=&cabinet=&cage=&node=&since=&until=
//	GET /query?q=<titanql expression>
//
// All read one consistent (sealed segments, retained tail) snapshot via
// historyView. The two histories list events and share scanHistory; the
// three aggregates spell a titanql.Plan and share answer — segment
// columns streamed without materializing events, the retained tail
// folded through the identical kernel — so their answers byte-match the
// batch core pipeline computing the same aggregate over the same stream.

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
	writeHistoryHead(w, "code", h.Code, h.Sealed, h.Retained, h.Truncated)
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

// historyBounds reads the parameters both history endpoints take:
// ?since= / ?until= RFC 3339 bounds and ?limit=N, which caps the events
// listed (-1 without one); the error is the 400's body.
func historyBounds(q url.Values) (since, until time.Time, limit int, err error) {
	if since, until, err = parseTimeRange(q); err != nil {
		return since, until, 0, err
	}
	limit = -1
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return since, until, 0, fmt.Errorf("bad limit %q", v)
		}
	}
	return since, until, limit, nil
}

// handleNodeHistory serves a node's event history (scanHistory under an
// exact-cname predicate, which Compile parses rather than globs), bounded
// and capped by historyBounds as a code's is.
func (s *Server) handleNodeHistory(w http.ResponseWriter, r *http.Request) {
	cname := r.PathValue("cname")
	node, err := topology.ParseNodeID(cname)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad cname %q: %v", cname, err), http.StatusBadRequest)
		return
	}
	since, until, limit, err := historyBounds(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p := store.Predicate{Node: topology.CNameOf(node), Cage: -1, Since: since, Until: until}
	events, sealed, retained, err := s.scanHistory(p, limit, &s.metrics.queryNodeHistory)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	hist := NodeHistory{
		Node:      p.Node,
		Sealed:    sealed,
		Retained:  retained,
		Truncated: len(events) < sealed+retained,
		Events:    make([]HistoryEvent, 0, len(events)),
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
	since, until, limit, err := historyBounds(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
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

// A query is a plan. Each aggregate endpoint only spells one — /rollup
// and /top from URL parameters, /query from a titanql expression, each
// keeping its own error texts — and answer, the one body, compiles it,
// folds and writes. Whatever filter a request states lands in
// plan.Filter and is compiled to the fold's one matcher; the store's
// specs carry shape only.

// handleRollup serves time-bucketed fleet-wide counts — the paper's
// Fig 3 (events/hour by code) and Fig 12 (per-cabinet density) as live
// JSON, cells sorted canonically, so the body is byte-stable for a given
// history.
func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request) {
	badRequest(w, s.answer(w, r, rollupPlan, &s.metrics.queryRollup, true))
}

// handleTop serves offender cards ranked by event count — the paper's
// "a handful of cards produce almost all the SBEs" lists.
func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	badRequest(w, s.answer(w, r, topPlan, &s.metrics.queryTop, true))
}

// handleQuery serves one composed titanql plan — filter × group ×
// bucket × rank in a single expression:
//
//	GET /query?q=code=48 cabinet=c3-* | by cage | bucket 6h | top 5
//
// The response carries the canonical query spelling. queries counts
// every request, query_errors the refused ones.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	err := s.answer(w, r, queryPlan, &s.metrics.queries, false)
	if err != nil {
		s.metrics.queries.Add(1) // answer books the ones it serves
		s.metrics.queryErrors.Add(1)
	}
	badRequest(w, err)
}

// badRequest writes the 400 a spelling or compile error is; any failure
// before the fold is the client's.
func badRequest(w http.ResponseWriter, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// rollupPlan spells /rollup: ?by= is a comma list of code, cabinet,
// cage, node (empty = a pure time series); ?bucket= is a Go duration
// ≥ 1s (default 1h); the rest filter (urlFilter).
func rollupPlan(q url.Values) (*titanql.Plan, error) {
	plan := titanql.NewPlan()
	plan.Rollup.Bucket = time.Hour
	if v := q.Get("by"); v != "" {
		for _, dim := range strings.Split(v, ",") {
			if !plan.Rollup.GroupBy(strings.TrimSpace(dim)) {
				return nil, fmt.Errorf("bad by dimension %q: want code, cabinet, cage or node", dim)
			}
		}
	}
	if v := q.Get("bucket"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, fmt.Errorf("bad bucket %q: %v", v, err)
		}
		plan.Rollup.Bucket = d
	}
	return plan, urlFilter(&plan.Filter, q)
}

// topPlan spells /top: ?by= is node (default), serial or code; ?k= caps
// the ranking (default 20, 0 = all); the rest filter, exactly as on
// /rollup.
func topPlan(q url.Values) (*titanql.Plan, error) {
	plan := titanql.NewPlan()
	plan.Kind, plan.Top = titanql.KindTop, store.TopSpec{By: store.TopByNode, K: 20}
	if v := q.Get("by"); v != "" {
		plan.Top.By = store.TopBy(v)
	}
	if v := q.Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			return nil, fmt.Errorf("bad k %q", v)
		}
		plan.Top.K = k
	}
	return plan, urlFilter(&plan.Filter, q)
}

// urlFilter reads the filter parameters /rollup and /top share into p:
// ?code= keeps one code (its per-segment bitmap is the fast path),
// ?since= / ?until= bound the range, ?node= / ?cabinet= / ?cage= restrict
// where. The location values are decoded by titanql.SetPred — the query
// language's own decoder — so `?cabinet=c3-*` and `cabinet=c3-*` in a
// /query expression accept identical spellings and fail identically.
func urlFilter(p *store.Predicate, q url.Values) error {
	if v := q.Get("code"); v != "" {
		code, err := xid.ParseCode(v)
		if err != nil {
			return err
		}
		p.Codes = []xid.Code{code}
	}
	var err error
	if p.Since, p.Until, err = parseTimeRange(q); err != nil {
		return err
	}
	for _, key := range []string{"node", "cabinet", "cage"} {
		if v := q.Get(key); v != "" {
			if err := titanql.SetPred(p, key, v, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// queryPlan spells /query: ?q= is the expression.
func queryPlan(q url.Values) (*titanql.Plan, error) {
	expr := q.Get("q")
	if expr == "" {
		return nil, errors.New("missing q: want /query?q=<titanql expression>")
	}
	return titanql.Parse(expr)
}

// answer is the one body behind the three: spell the plan, compile it
// (an error from either is returned for the caller's 400, nothing
// written), fold segment-parallel over the consistent (sealed, tail)
// snapshot every read endpoint takes, book the fold and the endpoint's
// served counter, then write the Result, which renders one of its three
// faces — the titanql document; for a bare endpoint the store document
// inside it (Result.Bare, which echoes ?code=); or, under ?partial=1,
// the raw accumulator a titanrouter merges with its peers' before
// rendering once. partial is read before the fold: an offender ranking
// that will be exported must keep every key (store.ParallelTopAcc). The
// Result renders straight off its accumulator into jsonw.Write's pooled
// buffer, and Write gives the accumulator back to the store's pools
// before it sends.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, spell func(url.Values) (*titanql.Plan, error), served *atomic.Uint64, bare bool) error {
	q := r.URL.Query()
	plan, err := spell(q)
	if err != nil {
		return err
	}
	compiled, err := plan.Compile()
	if err != nil {
		return err
	}
	partial := q.Get("partial") == "1"
	segs, tail := s.historyView()
	start := time.Now()
	res, err := compiled.Fold(segs, tail, 0, partial)
	if err != nil {
		return err
	}
	s.metrics.observeFold(start, res.Rows(), res.Visited())
	served.Add(1)
	if bare {
		res.Bare(q.Get("code"))
	}
	s.writeJSON(w, res)
	return nil
}
