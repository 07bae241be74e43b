//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"titanre/internal/alert"
	"titanre/internal/console"
	"titanre/internal/serve"
	"titanre/internal/store"
	"titanre/internal/titanql"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// The oracle. Every response a workload checks is compared against a
// document folded naively from the event slice — titanql.Run with no
// segments and the events as tail, store.RollupEvents / TopEvents, a
// linear filter for the history endpoints, alert.Engine.Run — so no
// segment, bitmap, mmap, journal or merge code is on the reference side.
// Per-node online state has no library fold; it comes from a plain
// in-process serve.Server (nothing sealed, nothing journaled) fed only
// the sampled nodes' events, which is sound because no state spans nodes.

// query shapes, by class. Scan shapes must touch every segment; point
// shapes are selective or pruned.
const (
	classScan  = "scan"
	classPoint = "point"
)

var (
	scanShapes  = []string{"top_node", "rollup_code", "plan_cabinet"}
	pointShapes = []string{"node_state", "node_history", "code_history", "plan_selective", "plan_pruned"}
	allShapes   = append(append([]string{}, scanShapes...), pointShapes...)
)

// The two fixed plans: one must touch every event, one selects about 1%.
const (
	exprUnselective = "* | by cabinet | bucket 7d"
	exprSelective   = "code=31 cabinet=c3-* | by cage | bucket 6h | top 5"
)

func planCabinet() *query   { return planQuery("plan_cabinet", classScan, exprUnselective) }
func planSelective() *query { return planQuery("plan_selective", classPoint, exprSelective) }

// query is one read request with its naive reference.
type query struct {
	Shape, Class, Path string
	// ref folds the reference document from the oracle's events.
	ref func(o *oracle) (any, error)
	// norm, when set, rewrites a served body before comparison: the
	// history documents report how many events came from sealed segments
	// and how many from the retained tail, a split that depends on when
	// compaction last ran, so both sides are compared with it folded.
	norm func(body []byte) ([]byte, error)
	// want is the reference body, filled by oracle.prepare.
	want []byte
}

// docJSON renders a document the way the daemons' writeJSON does.
func docJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("bench: encoding reference document: %v", err)) // only unencodable types, a bug
	}
	return buf.Bytes()
}

type oracle struct {
	events    []console.Event
	nodeState map[string][]byte // cname -> /nodes/{cname} reference body
}

// queryPlan is the fixed request sequence one pass replays: per round,
// every scan shape once and every point shape twice, parameters drawn
// from rng, in an order that is shuffled once and is the same for every
// seed: two readers share the sequence, so which shapes follow each other
// decides which requests run side by side, and an order that moved with
// the seed moved the heaviest scan's median latency by a fifth with it. With 13 requests a round the overall median
// falls inside the fourth-fastest point shape and the 95th percentile
// inside the heaviest scan shape, not on a boundary between two shapes.
func queryPlan(rng *rand.Rand, base []console.Event, rounds int) []*query {
	var plan []*query
	start, end := base[0].Time, base[len(base)-1].Time
	pick := func() console.Event { return base[rng.Intn(len(base))] }
	window := func(d time.Duration) (time.Time, time.Time) {
		room := end.Sub(start) - d
		if room <= 0 {
			return start, end
		}
		since := start.Add(time.Duration(rng.Int63n(int64(room)))).Truncate(time.Second)
		return since, since.Add(d)
	}
	for r := 0; r < rounds; r++ {
		plan = append(plan, topNode(), rollupCode(), planCabinet())
		for i := 0; i < 2; i++ {
			since, until := window(30 * 24 * time.Hour)
			psince, puntil := window(7 * 24 * time.Hour)
			plan = append(plan,
				nodeStateQuery(pick().Node),
				nodeHistory(pick().Node, since, until),
				codeHistory(xid.Code(43), 100),
				planSelective(),
				planQuery("plan_pruned", classPoint, fmt.Sprintf("code=13 since=%s until=%s | top serial 10",
					psince.UTC().Format(time.RFC3339), puntil.UTC().Format(time.RFC3339))),
			)
		}
	}
	rand.New(rand.NewSource(int64(len(plan)))).Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// checkPlan is the order-independent document set the ingest workloads
// compare after loading: the three scan shapes plus two filtered plans.
func checkPlan() []*query {
	return []*query{
		topNode(), rollupCode(), planCabinet(), planSelective(),
		planQuery("plan_codes", classPoint, "code=43,48,otb | by code | bucket 1d"),
	}
}

func topNode() *query {
	spec := store.TopSpec{By: store.TopByNode, K: 10}
	return &query{Shape: "top_node", Class: classScan, Path: "/top?by=node&k=10",
		ref: func(o *oracle) (any, error) { return store.TopEvents(o.events, spec) }}
}

func rollupCode() *query {
	spec := store.RollupSpec{ByCode: true, Bucket: 24 * time.Hour}
	return &query{Shape: "rollup_code", Class: classScan, Path: "/rollup?by=code&bucket=24h",
		ref: func(o *oracle) (any, error) { return store.RollupEvents(o.events, spec) }}
}

func planQuery(shape, class, expr string) *query {
	return &query{Shape: shape, Class: class, Path: "/query?" + url.Values{"q": {expr}}.Encode(),
		ref: func(o *oracle) (any, error) { return titanql.Run(expr, nil, o.events, 1) }}
}

func nodeStateQuery(node topology.NodeID) *query {
	cname := topology.CNameOf(node)
	return &query{Shape: "node_state", Class: classPoint, Path: "/nodes/" + cname,
		ref: func(o *oracle) (any, error) {
			body, ok := o.nodeState[cname]
			if !ok {
				return nil, fmt.Errorf("oracle: no node-state reference for %s", cname)
			}
			return json.RawMessage(body), nil
		}}
}

func inWindow(t, since, until time.Time) bool {
	return (since.IsZero() || !t.Before(since)) && (until.IsZero() || !t.After(until))
}

func nodeHistory(node topology.NodeID, since, until time.Time) *query {
	cname := topology.CNameOf(node)
	path := fmt.Sprintf("/nodes/%s/history?%s", cname, url.Values{
		"since": {since.UTC().Format(time.RFC3339)}, "until": {until.UTC().Format(time.RFC3339)}}.Encode())
	return &query{Shape: "node_history", Class: classPoint, Path: path,
		ref: func(o *oracle) (any, error) {
			hist := serve.NodeHistory{Node: cname, Events: []serve.HistoryEvent{}}
			for _, ev := range o.events {
				if ev.Node != node || !inWindow(ev.Time, since, until) {
					continue
				}
				he := serve.HistoryEvent{Time: ev.Time, Code: ev.Code.String(), Page: ev.Page, Job: int64(ev.Job)}
				if ev.Serial != 0 {
					he.Serial = ev.Serial.String()
				}
				hist.Events = append(hist.Events, he)
			}
			hist.Sealed = len(hist.Events)
			return hist, nil
		},
		norm: func(body []byte) ([]byte, error) {
			var hist serve.NodeHistory
			if err := json.Unmarshal(body, &hist); err != nil {
				return nil, err
			}
			hist.Sealed, hist.Retained = hist.Sealed+hist.Retained, 0
			return docJSON(hist), nil
		}}
}

func codeHistory(code xid.Code, limit int) *query {
	return &query{Shape: "code_history", Class: classPoint,
		Path: fmt.Sprintf("/codes/%d/history?limit=%d", int(code), limit),
		ref: func(o *oracle) (any, error) {
			hist := serve.CodeHistory{Code: code.String(), Events: []serve.CodeHistoryEvent{}}
			for _, ev := range o.events {
				if ev.Code != code {
					continue
				}
				hist.Sealed++
				if len(hist.Events) == limit {
					hist.Truncated = true
					continue
				}
				he := serve.CodeHistoryEvent{Time: ev.Time, Node: topology.CNameOf(ev.Node), Page: ev.Page, Job: int64(ev.Job)}
				if ev.Serial != 0 {
					he.Serial = ev.Serial.String()
				}
				hist.Events = append(hist.Events, he)
			}
			return hist, nil
		},
		norm: func(body []byte) ([]byte, error) {
			var hist serve.CodeHistory
			if err := json.Unmarshal(body, &hist); err != nil {
				return nil, err
			}
			hist.Sealed, hist.Retained = hist.Sealed+hist.Retained, 0
			return docJSON(hist), nil
		}}
}

// alertsQuery compares GET /alerts against the batch alert engine; only
// meaningful when the daemon saw the events in corpus order.
func alertsQuery() *query {
	return &query{Shape: "alerts", Class: classPoint, Path: "/alerts",
		ref: func(o *oracle) (any, error) {
			eng := alert.NewEngine(alert.DefaultConfig())
			eng.Run(o.events)
			return serve.AlertViews(eng.Alerts()), nil
		}}
}

// warningsQuery: no precursor model is armed, so the stream must have
// issued exactly no warnings.
func warningsQuery() *query {
	return &query{Shape: "warnings", Class: classPoint, Path: "/warnings",
		ref: func(*oracle) (any, error) { return []serve.WarningView{}, nil }}
}

// newOracle folds every reference body for the given requests.
func newOracle(events []console.Event, plan []*query) (*oracle, error) {
	o := &oracle{events: events}
	var nodes []topology.NodeID
	for _, q := range plan {
		if q.Shape == "node_state" {
			node, err := topology.ParseNodeID(q.Path[len("/nodes/"):])
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, node)
		}
	}
	if len(nodes) > 0 {
		var err error
		if o.nodeState, err = nodeStateRefs(events, nodes); err != nil {
			return nil, err
		}
	}
	for _, q := range plan {
		doc, err := q.ref(o)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q.Path, err)
		}
		if raw, ok := doc.(json.RawMessage); ok {
			q.want = raw
		} else {
			q.want = docJSON(doc)
		}
	}
	return o, nil
}

// codeCounts is the reference for /stats.events_by_code.
func codeCounts(events []console.Event) map[string]int {
	counts := make(map[string]int)
	for _, ev := range events {
		counts[ev.Code.String()]++
	}
	return counts
}

// nodeStateRefs streams only the sampled nodes' events, in corpus order,
// through a plain in-process server and reads their state documents.
func nodeStateRefs(events []console.Event, nodes []topology.NodeID) (map[string][]byte, error) {
	want := make(map[topology.NodeID]bool, len(nodes))
	for _, n := range nodes {
		want[n] = true
	}
	var kept []console.Event
	for _, ev := range events {
		if want[ev.Node] {
			kept = append(kept, ev)
		}
	}
	cfg := serve.DefaultConfig()
	cfg.RetainEvents = false
	cfg.AlertFeed = false
	srv := serve.NewServer(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer srv.Shutdown(ctx)
	h := srv.Handler()
	raw, off := render(kept)
	for lo := 0; lo < len(kept); lo += backfillBatchLines {
		hi := min(lo+backfillBatchLines, len(kept))
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(raw[off[lo]:off[hi]])))
			if rec.Code == http.StatusAccepted {
				break
			}
			if rec.Code != http.StatusTooManyRequests {
				return nil, fmt.Errorf("oracle: reference server answered %d to /ingest", rec.Code)
			}
			if err := srv.Quiesce(ctx); err != nil {
				return nil, err
			}
		}
	}
	if err := srv.Quiesce(ctx); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(nodes))
	for n := range want {
		cname := topology.CNameOf(n)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nodes/"+cname, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("oracle: reference server answered %d for %s", rec.Code, cname)
		}
		out[cname] = rec.Body.Bytes()
	}
	return out, nil
}

// check compares one served body with its reference.
func (q *query) check(body []byte) error {
	if q.norm != nil {
		var err error
		if body, err = q.norm(body); err != nil {
			return fmt.Errorf("%s: undecodable response: %v", q.Path, err)
		}
	}
	if !bytes.Equal(body, q.want) {
		return fmt.Errorf("%s: %d response bytes differ from the %d-byte reference", q.Path, len(body), len(q.want))
	}
	return nil
}
