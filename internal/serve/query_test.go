package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/store"
	"titanre/internal/titanql"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// renderJSON renders v with encoding/json — the bytes the handlers must
// write, and not through their own renderer — so references can be
// compared to HTTP bodies byte for byte.
func renderJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// queryServer streams a log into a compaction-enabled server and
// returns it with its test base URL plus the batch-parsed reference
// stream (arrival order — NOT sorted).
func queryServer(t *testing.T, log []byte) (*Server, string, []console.Event) {
	t.Helper()
	want, err := console.NewCorrelator().ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CompactDir = filepath.Join(t.TempDir(), "segments")
	cfg.CompactInterval = time.Hour // idle; tests compact explicitly
	cfg.CompactMin = 1
	s := testServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	streamAll(t, s, ts.URL, log)
	return s, ts.URL, want
}

// ofCode is a ?code= parameter done naively, for the batch references:
// the events carrying code, and the "code" member the bare document
// echoes it as. Code 0 (no event of the fixture carries it) stands for
// no parameter: every event, no echo.
func ofCode(events []console.Event, code xid.Code) (kept []console.Event, echo string) {
	if code == 0 {
		return events, ""
	}
	for _, ev := range events {
		if ev.Code == code {
			kept = append(kept, ev)
		}
	}
	return kept, code.String()
}

// TestRollupMatchesBatch is the tentpole equivalence: GET /rollup over
// a streamed, partially compacted month answers byte-identically to the
// batch event kernel over the same stream — the paper's Fig 3
// (events/hour by code) and per-cabinet density as live JSON.
func TestRollupMatchesBatch(t *testing.T) {
	events := simEvents()
	log := encodeLog(t, events)
	s, base, want := queryServer(t, log)
	if _, err := s.compact(48*time.Hour, 1); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st := s.StatsNow(); st.SealedEvents == 0 || st.RetainedEvents == 0 {
		t.Fatalf("want a sealed+retained split, got sealed=%d retained=%d", st.SealedEvents, st.RetainedEvents)
	}

	cases := []struct {
		query string
		spec  store.RollupSpec
		code  xid.Code // ?code=, 0 for none: the reference folds only its events and echoes it
	}{
		{"by=code,cabinet&bucket=1h", store.RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}, 0},
		{"by=code&bucket=1h", store.RollupSpec{ByCode: true, Bucket: time.Hour}, 0},
		{"bucket=24h", store.RollupSpec{Bucket: 24 * time.Hour}, 0},
		{"by=cabinet,cage&bucket=24h&code=48", store.RollupSpec{ByCabinet: true, ByCage: true, Bucket: 24 * time.Hour}, xid.DoubleBitError},
		{"by=node&bucket=24h&code=13", store.RollupSpec{ByNode: true, Bucket: 24 * time.Hour}, 13},
	}
	for _, tc := range cases {
		kept, echo := ofCode(want, tc.code)
		ref, err := store.RollupEvents(kept, tc.spec)
		if err != nil {
			t.Fatalf("%s: batch kernel: %v", tc.query, err)
		}
		ref.Code = echo
		body := getBody(t, base+"/rollup?"+tc.query)
		if !bytes.Equal(body, renderJSON(t, ref)) {
			t.Fatalf("GET /rollup?%s diverges from the batch rollup over the same stream", tc.query)
		}
	}

	// Cross-check one document against straight counting: hourly DBE
	// cells must sum to the stream's DBE count.
	var doc store.RollupDoc
	getJSON(t, base+"/rollup?bucket=1h&code=48", &doc)
	var dbe int64
	for _, ev := range want {
		if ev.Code == xid.DoubleBitError {
			dbe++
		}
	}
	var cells int64
	for _, c := range doc.Cells {
		cells += c.Count
	}
	if cells != dbe || doc.TotalEvents != dbe {
		t.Fatalf("DBE rollup sums to %d cells / %d total, stream has %d DBEs", cells, doc.TotalEvents, dbe)
	}

	if got := getStatus(t, base+"/rollup?bucket=10ms"); got != http.StatusBadRequest {
		t.Fatalf("sub-second bucket: got %d, want 400", got)
	}
	if got := getStatus(t, base+"/rollup?by=rack"); got != http.StatusBadRequest {
		t.Fatalf("bad dimension: got %d, want 400", got)
	}
	if st := s.StatsNow(); st.QueryRollup == 0 {
		t.Fatal("stats: query_rollup counter never moved")
	}
}

// TestCodeHistoryFleetWide: GET /codes/{xid}/history returns every
// event carrying the code, fleet-wide, in arrival order, with the
// sealed/retained split accounted exactly — sealed events are the
// filtered prefix of what compaction sealed.
func TestCodeHistoryFleetWide(t *testing.T) {
	events := simEvents()
	log := encodeLog(t, events)
	s, base, want := queryServer(t, log)
	// An earlier compaction first, so the sealed history is two segments.
	older, err := s.compact(15*24*time.Hour, 1)
	if err != nil || older == 0 {
		t.Fatalf("first compaction sealed %d events: %v", older, err)
	}
	sealed, err := s.compact(48*time.Hour, 1)
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if sealed == 0 {
		t.Fatal("compaction sealed nothing")
	}
	sealed += older

	for _, code := range []console.EventCode{xid.DoubleBitError, 13, 31, xid.OffTheBus} {
		var ref []console.Event
		sealedRef := 0
		for i, ev := range want {
			if ev.Code != code {
				continue
			}
			ref = append(ref, ev)
			if i < sealed {
				sealedRef++
			}
		}
		exp := CodeHistory{Code: code.String(), Sealed: sealedRef, Retained: len(ref) - sealedRef, Events: make([]CodeHistoryEvent, 0, len(ref))}
		for _, ev := range ref {
			he := CodeHistoryEvent{Time: ev.Time, Node: topology.CNameOf(ev.Node), Page: ev.Page, Job: int64(ev.Job)}
			if ev.Serial != 0 {
				he.Serial = ev.Serial.String()
			}
			exp.Events = append(exp.Events, he)
		}
		body := getBody(t, fmt.Sprintf("%s/codes/%d/history", base, int(code)))
		if !bytes.Equal(body, renderJSON(t, exp)) {
			t.Fatalf("GET /codes/%d/history diverges from the filtered stream (%d sealed + %d retained events)", int(code), sealedRef, len(ref)-sealedRef)
		}

		// Bounded: inclusive since/until window.
		lo, hi := ref[len(ref)/4].Time, ref[3*len(ref)/4].Time
		var hist CodeHistory
		getJSON(t, fmt.Sprintf("%s/codes/%d/history?since=%s&until=%s", base, int(code),
			lo.UTC().Format(time.RFC3339), hi.UTC().Format(time.RFC3339)), &hist)
		nbound := 0
		for _, ev := range ref {
			if !ev.Time.Before(lo) && !ev.Time.After(hi) {
				nbound++
			}
		}
		if len(hist.Events) != nbound || hist.Sealed+hist.Retained != nbound {
			t.Fatalf("code %d bounded history: %d events (sealed %d + retained %d), want %d", int(code), len(hist.Events), hist.Sealed, hist.Retained, nbound)
		}
	}

	// The sbe/otb spellings hit the same handler.
	if !bytes.Equal(getBody(t, base+"/codes/otb/history"), getBody(t, fmt.Sprintf("%s/codes/%d/history", base, int(xid.OffTheBus)))) {
		t.Fatal("/codes/otb/history diverges from the numeric spelling")
	}
	var trunc CodeHistory
	getJSON(t, base+"/codes/13/history?limit=10", &trunc)
	if !trunc.Truncated || len(trunc.Events) != 10 {
		t.Fatalf("limit=10: truncated=%v events=%d", trunc.Truncated, len(trunc.Events))
	}
	// ?limit= stops the scan's materializing, never its counting: the
	// answer is the unlimited one with the event list cut, wherever the
	// cut falls — nothing, inside the first segment, inside the second,
	// inside the retained tail, exactly at the end, past it.
	var full CodeHistory
	getJSON(t, base+"/codes/13/history", &full)
	inFirst := 0
	for _, ev := range want[:older] {
		if ev.Code == 13 {
			inFirst++
		}
	}
	if inFirst == 0 || inFirst+1 >= full.Sealed || full.Retained < 2 {
		t.Fatalf("fixture: XID 13 has %d events in the first segment, %d sealed, %d retained", inFirst, full.Sealed, full.Retained)
	}
	n := len(full.Events)
	for _, limit := range []int{0, 10, (inFirst + full.Sealed) / 2, full.Sealed + full.Retained/2, n, n + 5} {
		exp := full
		exp.Events = full.Events[:min(limit, n)]
		exp.Truncated = limit < n
		if body := getBody(t, fmt.Sprintf("%s/codes/13/history?limit=%d", base, limit)); !bytes.Equal(body, renderJSON(t, exp)) {
			t.Fatalf("limit=%d of %d (%d in the first segment, %d sealed): answer is not the full history cut at the limit", limit, n, inFirst, full.Sealed)
		}
	}
	if got := getStatus(t, base+"/codes/zzz/history"); got != http.StatusBadRequest {
		t.Fatalf("bad code: got %d, want 400", got)
	}
	// A code no int16 column can hold has an empty history — not the
	// history of the XID it truncates to (65549 -> 13).
	var wide CodeHistory
	getJSON(t, base+"/codes/65549/history", &wide)
	if wide.Sealed != 0 || wide.Retained != 0 || len(wide.Events) != 0 {
		t.Fatalf("/codes/65549/history: %d sealed + %d retained events, want none", wide.Sealed, wide.Retained)
	}
	if st := s.StatsNow(); st.QueryCodeHistory == 0 {
		t.Fatal("stats: query_code_history counter never moved")
	}
}

// TestTopOffenders: GET /top ranks offenders byte-identically to the
// batch event kernel, for every dimension.
func TestTopOffenders(t *testing.T) {
	events := simEvents()
	log := encodeLog(t, events)
	s, base, want := queryServer(t, log)
	if _, err := s.compact(48*time.Hour, 1); err != nil {
		t.Fatalf("compact: %v", err)
	}

	cases := []struct {
		query string
		spec  store.TopSpec
		code  xid.Code // ?code=, 0 for none (see TestRollupMatchesBatch)
	}{
		{"", store.TopSpec{By: store.TopByNode, K: 20}, 0},
		{"?k=5", store.TopSpec{By: store.TopByNode, K: 5}, 0},
		{"?by=serial&k=10&code=13", store.TopSpec{By: store.TopBySerial, K: 10}, 13},
		{"?by=code&k=0", store.TopSpec{By: store.TopByCode, K: 0}, 0},
	}
	for _, tc := range cases {
		kept, echo := ofCode(want, tc.code)
		ref, err := store.TopEvents(kept, tc.spec)
		if err != nil {
			t.Fatalf("%q: batch kernel: %v", tc.query, err)
		}
		ref.Code = echo
		body := getBody(t, base+"/top"+tc.query)
		if !bytes.Equal(body, renderJSON(t, ref)) {
			t.Fatalf("GET /top%s diverges from the batch ranking", tc.query)
		}
	}
	// The location filters /rollup takes restrict /top too (it once
	// dropped them and answered fleet-wide): the filtered ranking is the
	// batch ranking over the matching events, and the very top document
	// /query renders for the same filter.
	m, err := store.Predicate{Cabinet: "c3-*", Cage: -1}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var inC3 []console.Event
	for _, ev := range want {
		if m.MatchEvent(ev) {
			inC3 = append(inC3, ev)
		}
	}
	if len(inC3) == 0 || len(inC3) == len(want) {
		t.Fatalf("cabinet=c3-* keeps %d of %d events; wanted a strict subset", len(inC3), len(want))
	}
	ref, err := store.TopEvents(inC3, store.TopSpec{By: store.TopByNode, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	filtered := getBody(t, base+"/top?by=node&k=10&cabinet=c3-*")
	if !bytes.Equal(filtered, renderJSON(t, ref)) {
		t.Fatalf("GET /top?by=node&k=10&cabinet=c3-* diverges from the batch ranking over the c3 column:\n%.400s", filtered)
	}
	var viaQuery titanql.Doc
	getJSON(t, queryURL(base, "cabinet=c3-* | top node 10"), &viaQuery)
	if viaQuery.Top == nil || !bytes.Equal(filtered, viaQuery.Top.AppendJSON(nil)) {
		t.Fatal("GET /top?by=node&k=10&cabinet=c3-* is not the top document of /query?q=cabinet=c3-* | top node 10")
	}
	for _, bad := range []string{"?cage=9", "?cabinet=[", "?node=c3-[", "?cage=x"} {
		if got := getStatus(t, base+"/top"+bad); got != http.StatusBadRequest {
			t.Fatalf("GET /top%s: got %d, want 400", bad, got)
		}
	}

	var doc store.TopDoc
	getJSON(t, base+"/top?by=code&k=0", &doc)
	var total int64
	for _, card := range doc.Cards {
		total += card.Count
	}
	if total != int64(len(want)) {
		t.Fatalf("code cards cover %d events, stream has %d", total, len(want))
	}
	if got := getStatus(t, base+"/top?by=cabinet"); got != http.StatusBadRequest {
		t.Fatalf("bad dimension: got %d, want 400", got)
	}
	if got := getStatus(t, base+"/top?k=-1"); got != http.StatusBadRequest {
		t.Fatalf("negative k: got %d, want 400", got)
	}
	if st := s.StatsNow(); st.QueryTop == 0 {
		t.Fatal("stats: query_top counter never moved")
	}
}

// TestTopHugeK: k bounds a ranking, it does not size one. A k far past
// the key count — here 2^40, which the parent commit tried to allocate
// cards for and died of, out of memory, on one GET — answers 200 with
// every key and echoes k as asked, on /top, on /query and as a partial.
func TestTopHugeK(t *testing.T) {
	log := encodeLog(t, simEvents())
	s, base, want := queryServer(t, log)
	if _, err := s.compact(48*time.Hour, 1); err != nil {
		t.Fatalf("compact: %v", err)
	}
	const huge = 1 << 40
	for _, by := range []store.TopBy{store.TopByNode, store.TopByCode} {
		ref, err := store.TopEvents(want, store.TopSpec{By: by, K: huge})
		if err != nil {
			t.Fatal(err)
		}
		if ref.K != huge || len(ref.Cards) == 0 {
			t.Fatalf("reference by=%s: k=%d, %d cards", by, ref.K, len(ref.Cards))
		}
		if body := getBody(t, fmt.Sprintf("%s/top?by=%s&k=%d", base, by, huge)); !bytes.Equal(body, renderJSON(t, ref)) {
			t.Fatalf("GET /top?by=%s&k=2^40 diverges from the batch ranking", by)
		}
		var doc titanql.Doc
		getJSON(t, queryURL(base, fmt.Sprintf("* | top %s %d", by, huge)), &doc)
		if doc.Top == nil || doc.Top.K != huge || len(doc.Top.Cards) != len(ref.Cards) {
			t.Fatalf("/query top %s 2^40: %+v", by, doc.Top)
		}
		if got := getStatus(t, fmt.Sprintf("%s/top?by=%s&k=%d&partial=1", base, by, huge)); got != http.StatusOK {
			t.Fatalf("GET /top?by=%s&k=2^40&partial=1: status %d", by, got)
		}
	}
}

// TestFoldCounters: every aggregate query books the rows it folded and
// the time the fold took, on /stats and /metrics alike.
func TestFoldCounters(t *testing.T) {
	log := encodeLog(t, simEvents())
	s, base, want := queryServer(t, log)
	if _, err := s.compact(48*time.Hour, 1); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st := s.StatsNow(); st.QueryRowsFolded != 0 || st.QueryFoldSeconds != 0 || st.QueryRenderBytes != 0 || st.QueryRenderSeconds != 0 {
		t.Fatalf("fold or render counters moved before any query: %+v", st)
	}
	rendered := len(getBody(t, base+"/rollup?by=code&bucket=1h"))
	rendered += len(getBody(t, base+"/top?k=3"))
	rendered += len(getBody(t, queryURL(base, "* | by cage | bucket 1d")))
	getStatus(t, queryURL(base, "| nonsense"))
	st := s.StatsNow()
	if st.QueryRowsFolded != 3*uint64(len(want)) || st.QueryFoldSeconds <= 0 {
		t.Fatalf("after three unfiltered queries over %d events: %d rows folded in %g s", len(want), st.QueryRowsFolded, st.QueryFoldSeconds)
	}
	if st.QueryRenderBytes != uint64(rendered) || st.QueryRenderSeconds <= 0 {
		t.Fatalf("after three answers of %d bytes in all: %d bytes rendered in %g s", rendered, st.QueryRenderBytes, st.QueryRenderSeconds)
	}
	// Both histories render themselves too, partials as well; the
	// documents encoding/json still writes (/stats, node state, alerts)
	// and a 400 are not render work.
	cname := topology.CNameOf(want[0].Node)
	rendered += len(getBody(t, base+"/nodes/"+cname+"/history"))
	rendered += len(getBody(t, base+"/codes/13/history?limit=5"))
	rendered += len(getBody(t, base+"/top?k=3&partial=1"))
	// A count-first ranking walks its rows twice and books them once;
	// under a filter, the rows the filter kept.
	var kept titanql.Doc
	rendered += len(getBody(t, queryURL(base, "* | top serial 4")))
	body := getBody(t, queryURL(base, "cabinet=c3-* | top node 2"))
	rendered += len(body)
	if err := json.Unmarshal(body, &kept); err != nil || kept.Top == nil || kept.Top.TotalEvents == 0 {
		t.Fatalf("filtered ranking: %v, %s", err, body)
	}
	if got, want := s.StatsNow().QueryRowsFolded, 5*uint64(len(want))+uint64(kept.Top.TotalEvents); got != want {
		t.Fatalf("rows folded %d, want %d: five unfiltered folds and one filtered, each row once", got, want)
	}
	getBody(t, base+"/stats")
	getBody(t, base+"/nodes/"+cname)
	getBody(t, base+"/alerts")
	getStatus(t, base+"/rollup?by=rack")
	if got := s.StatsNow().QueryRenderBytes; got != uint64(rendered) {
		t.Fatalf("render bytes %d, want %d: the five self-rendering endpoints and nothing else", got, rendered)
	}
	st = s.StatsNow()
	metrics := string(getBody(t, base+"/metrics"))
	for _, line := range []string{
		fmt.Sprintf("\ntitand_query_rows_folded_total %d\n", st.QueryRowsFolded),
		"\n# TYPE titand_query_fold_seconds_total counter\ntitand_query_fold_seconds_total ",
		fmt.Sprintf("\ntitand_query_render_bytes_total %d\n", st.QueryRenderBytes),
		"\n# TYPE titand_query_render_seconds_total counter\ntitand_query_render_seconds_total ",
	} {
		if !strings.Contains(metrics, line) {
			t.Fatalf("/metrics lacks %q", line)
		}
	}
}

// TestHistoryArrivalOrder pins the same-second ordering bugfix: two
// events on one node in the same second, arriving with the higher code
// first, must come back from /nodes/{cname}/history in arrival order —
// a sort on second-resolution timestamps would flip them.
func TestHistoryArrivalOrder(t *testing.T) {
	// Craft the pair from two real simulated events on one node, forced
	// into the same second with the higher code first.
	var pair []console.Event
	firstOf := map[topology.NodeID]console.Event{}
	for _, ev := range simEvents() {
		prev, seen := firstOf[ev.Node]
		if !seen {
			firstOf[ev.Node] = ev
			continue
		}
		if prev.Code != ev.Code {
			hi, lo := prev, ev
			if hi.Code < lo.Code {
				hi, lo = lo, hi
			}
			lo.Time = hi.Time
			pair = []console.Event{hi, lo}
			break
		}
	}
	if pair == nil {
		t.Fatal("no node with two distinct codes in the simulated month")
	}
	log := encodeLog(t, pair)

	// The crafted log must round-trip in arrival order, and a sort must
	// actually flip it — otherwise the test proves nothing.
	parsed, err := console.NewCorrelator().ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 || parsed[0].Code != pair[0].Code || parsed[1].Code != pair[1].Code {
		t.Fatalf("crafted log did not round-trip: %v", parsed)
	}
	sorted := append([]console.Event(nil), parsed...)
	console.SortEvents(sorted)
	if sorted[0].Code == parsed[0].Code {
		t.Fatal("crafted pair is not order-sensitive; sort would not flip it")
	}

	s, base, _ := queryServer(t, log)
	var hist NodeHistory
	getJSON(t, base+"/nodes/"+topology.CNameOf(pair[0].Node)+"/history", &hist)
	if len(hist.Events) != 2 {
		t.Fatalf("history has %d events, want 2", len(hist.Events))
	}
	if hist.Events[0].Code != pair[0].Code.String() || hist.Events[1].Code != pair[1].Code.String() {
		t.Fatalf("history reordered same-second events: got [%s %s], want [%s %s]",
			hist.Events[0].Code, hist.Events[1].Code, pair[0].Code, pair[1].Code)
	}
	var ch CodeHistory
	getJSON(t, fmt.Sprintf("%s/codes/%d/history", base, int(pair[0].Code)), &ch)
	if len(ch.Events) != 1 || ch.Events[0].Node != topology.CNameOf(pair[0].Node) {
		t.Fatalf("code history for the crafted pair: %+v", ch)
	}
	if st := s.StatsNow(); st.QueryNodeHistory != 1 || st.QueryCodeHistory != 1 {
		t.Fatalf("stats: query_node_history=%d query_code_history=%d after one request each", st.QueryNodeHistory, st.QueryCodeHistory)
	}
}

// TestNodeHistoryLimit: ?limit= caps a node's history as it caps a
// code's — the answer is the unlimited one with the event list cut, the
// sealed/retained counts whole and truncated set — wherever the cut
// falls: nothing, inside the sealed segment, inside the retained tail,
// at the end, past it. (It was parsed by neither the handler nor
// anything under it: a chronically failing node answered without bound.)
func TestNodeHistoryLimit(t *testing.T) {
	events := simEvents()
	s, base, want := queryServer(t, encodeLog(t, events))
	sealed, err := s.compact(15*24*time.Hour, 1)
	if err != nil || sealed == 0 {
		t.Fatalf("compaction sealed %d events: %v", sealed, err)
	}
	// The node with the longest history that straddles the seal.
	before, after := map[topology.NodeID]int{}, map[topology.NodeID]int{}
	for i, ev := range want {
		if i < sealed {
			before[ev.Node]++
		} else {
			after[ev.Node]++
		}
	}
	node, n := topology.NodeID(-1), 0
	for cand, b := range before {
		if a := after[cand]; b >= 2 && a >= 2 && (a+b > n || a+b == n && cand < node) {
			node, n = cand, a+b
		}
	}
	if node < 0 {
		t.Fatal("fixture: no node with two sealed and two retained events")
	}
	url := base + "/nodes/" + topology.CNameOf(node) + "/history"
	var full NodeHistory
	getJSON(t, url, &full)
	if full.Sealed != before[node] || full.Retained != after[node] || len(full.Events) != n || full.Truncated {
		t.Fatalf("unlimited history: %d sealed + %d retained, %d listed, truncated=%v; the stream holds %d + %d", full.Sealed, full.Retained, len(full.Events), full.Truncated, before[node], after[node])
	}
	for _, limit := range []int{0, 1, 2, full.Sealed, full.Sealed + 1, n, n + 5} {
		exp := full
		exp.Events = full.Events[:min(limit, n)]
		exp.Truncated = limit < n
		if body := getBody(t, fmt.Sprintf("%s?limit=%d", url, limit)); !bytes.Equal(body, renderJSON(t, exp)) {
			t.Fatalf("limit=%d of %d (%d sealed): answer is not the full history cut at the limit\n%s", limit, n, full.Sealed, body)
		}
	}
}

// TestNodeHistoryWindowsAcrossSegments: a node's history is read off
// each segment's node index, so every since/until/limit cut — at the
// node's first and last events, at the events either side of each
// segment boundary and of the seal, and unbounded — must answer what a
// naive scan of the arrival-ordered stream does.
func TestNodeHistoryWindowsAcrossSegments(t *testing.T) {
	events := simEvents()
	s, base, want := queryServer(t, encodeLog(t, events))
	for _, age := range []time.Duration{21, 14, 7} {
		if _, err := s.compact(age*24*time.Hour, 1); err != nil {
			t.Fatal(err)
		}
	}
	segs, tail := s.historyView()
	if len(segs) < 3 || len(tail) == 0 {
		t.Fatalf("fixture: %d segments and %d retained events, want three and a tail", len(segs), len(tail))
	}
	sealed := len(want) - len(tail)
	// The busiest node with events both in the first segment and in the
	// tail, and the positions of its events in the stream.
	first, last, counts := map[topology.NodeID]bool{}, map[topology.NodeID]bool{}, map[topology.NodeID]int{}
	for i, ev := range want {
		first[ev.Node] = first[ev.Node] || i < segs[0].Len()
		last[ev.Node] = last[ev.Node] || i >= sealed
		counts[ev.Node]++
	}
	node, best := topology.NodeID(-1), 0
	for cand, c := range counts {
		if first[cand] && last[cand] && (c > best || c == best && cand < node) {
			node, best = cand, c
		}
	}
	if node < 0 {
		t.Fatal("fixture: no node with events both in the first segment and in the tail")
	}
	var mine []int
	for i, ev := range want {
		if ev.Node == node {
			mine = append(mine, i)
		}
	}
	cuts := []time.Time{{}, want[mine[0]].Time, want[mine[len(mine)-1]].Time}
	edge := 0
	for _, seg := range segs { // the last edge is the seal
		edge += seg.Len()
		k := sort.SearchInts(mine, edge)
		if k > 0 {
			cuts = append(cuts, want[mine[k-1]].Time)
		}
		if k < len(mine) {
			cuts = append(cuts, want[mine[k]].Time)
		}
	}
	cname := topology.CNameOf(node)
	for _, since := range cuts {
		for _, until := range cuts {
			if !since.IsZero() && !until.IsZero() && until.Before(since) {
				continue
			}
			exp := NodeHistory{Node: cname, Events: []HistoryEvent{}}
			for _, i := range mine {
				ev := want[i]
				if !since.IsZero() && ev.Time.Before(since) || !until.IsZero() && ev.Time.After(until) {
					continue
				}
				if i < sealed {
					exp.Sealed++
				} else {
					exp.Retained++
				}
				he := HistoryEvent{Time: ev.Time, Code: ev.Code.String(), Page: ev.Page, Job: int64(ev.Job)}
				if ev.Serial != 0 {
					he.Serial = ev.Serial.String()
				}
				exp.Events = append(exp.Events, he)
			}
			n := len(exp.Events)
			for _, limit := range []int{-1, 0, 1, exp.Sealed, n - 1, n} {
				q, cut := url.Values{}, exp
				if !since.IsZero() {
					q.Set("since", since.Format(time.RFC3339))
				}
				if !until.IsZero() {
					q.Set("until", until.Format(time.RFC3339))
				}
				if limit >= 0 {
					q.Set("limit", fmt.Sprint(limit))
					cut.Events, cut.Truncated = exp.Events[:min(limit, n)], limit < n
				}
				path := base + "/nodes/" + cname + "/history?" + q.Encode()
				if body := getBody(t, path); !bytes.Equal(body, renderJSON(t, cut)) {
					t.Fatalf("%s: not the naive scan's answer (%d sealed + %d retained)\n%s", path, exp.Sealed, exp.Retained, body)
				}
			}
		}
	}
}

// TestQueryConsistencyUnderCompaction hammers /nodes/{cname}/history,
// /codes/{xid}/history and /rollup while compaction repeatedly seals
// chunks of the tail, asserting every single response equals the
// uninterrupted-stream reference — the consistent-snapshot contract
// (satellite #3; run under -race).
func TestQueryConsistencyUnderCompaction(t *testing.T) {
	events := simEvents()[:30000]
	log := encodeLog(t, events)
	s, base, want := queryServer(t, log)

	// The busiest node's history, rendered once, in arrival order.
	counts := map[topology.NodeID]int{}
	for _, ev := range want {
		counts[ev.Node]++
	}
	var busiest topology.NodeID
	for n, c := range counts {
		if c > counts[busiest] || (c == counts[busiest] && n < busiest) {
			busiest = n
		}
	}
	var nodeRef []HistoryEvent
	for _, ev := range want {
		if ev.Node != busiest {
			continue
		}
		he := HistoryEvent{Time: ev.Time, Code: ev.Code.String(), Page: ev.Page, Job: int64(ev.Job)}
		if ev.Serial != 0 {
			he.Serial = ev.Serial.String()
		}
		nodeRef = append(nodeRef, he)
	}
	nodeRefJSON, err := json.Marshal(nodeRef)
	if err != nil {
		t.Fatal(err)
	}
	nodeURL := base + "/nodes/" + topology.CNameOf(busiest) + "/history"

	spec := store.RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}
	rollupDoc, err := store.RollupEvents(want, spec)
	if err != nil {
		t.Fatal(err)
	}
	rollupRef := renderJSON(t, rollupDoc)
	rollupURL := base + "/rollup?by=code,cabinet&bucket=1h"

	var sbeRef int
	for _, ev := range want {
		if ev.Code == 13 {
			sbeRef++
		}
	}
	codeURL := base + "/codes/13/history"

	// Compactor: seal progressively younger prefixes until everything
	// but the newest second is on disk.
	span := want[len(want)-1].Time.Sub(want[0].Time)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 8; i >= 0; i-- {
			age := span * time.Duration(i) / 9
			if _, err := s.compact(age, 1); err != nil {
				t.Errorf("compact(age=%v): %v", age, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	fetch := func(url string) ([]byte, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-done:
					if iter > 0 {
						return
					}
					// Always run at least one full round, so the
					// final all-sealed state is checked too.
				default:
				}

				body, err := fetch(nodeURL)
				if err != nil {
					t.Error(err)
					return
				}
				var hist NodeHistory
				if err := json.Unmarshal(body, &hist); err != nil {
					t.Error(err)
					return
				}
				got, _ := json.Marshal(hist.Events)
				if !bytes.Equal(got, nodeRefJSON) {
					t.Errorf("node history diverged mid-compaction: %d events, want %d", len(hist.Events), len(nodeRef))
					return
				}
				if hist.Sealed+hist.Retained != len(nodeRef) {
					t.Errorf("node history split %d+%d != %d", hist.Sealed, hist.Retained, len(nodeRef))
					return
				}

				body, err = fetch(rollupURL)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(body, rollupRef) {
					t.Error("rollup diverged mid-compaction")
					return
				}

				body, err = fetch(codeURL)
				if err != nil {
					t.Error(err)
					return
				}
				var ch CodeHistory
				if err := json.Unmarshal(body, &ch); err != nil {
					t.Error(err)
					return
				}
				if len(ch.Events) != sbeRef || ch.Sealed+ch.Retained != sbeRef {
					t.Errorf("code history %d events (split %d+%d), want %d", len(ch.Events), ch.Sealed, ch.Retained, sbeRef)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done

	// After the dust settles almost everything is sealed, and the
	// answers still match.
	if st := s.StatsNow(); st.SealedEvents == 0 {
		t.Fatal("compactor sealed nothing")
	}
	body, err := fetch(rollupURL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, rollupRef) {
		t.Fatal("rollup diverged after full compaction")
	}
}

// TestPooledFoldScratchDoesNotAlias: accumulators (a rollup's histogram,
// ordered cells and late cells among them), count tables, gather blocks
// and matcher bitmaps are borrowed from pools and returned when the
// answer is out, so two folds in flight must never share one. Eight
// readers replay a mix of every fold shape — count-first and every-key
// rankings, rollups by code alone, by location (dense buckets closed by
// a scan, sparse ones off their touched entries) and by node, ranked
// plans, filters that build bitmaps, partials, node histories — against
// a server over a sealed history with a retained tail; every body must
// be the bytes the same request got alone from a twin server. The
// readers' server has served nothing before, so its segments' node
// indexes are first built while all eight race to use them. Runs under
// -race in check.sh, twice.
func TestPooledFoldScratchDoesNotAlias(t *testing.T) {
	log := encodeLog(t, simEvents())
	split := func() (*Server, string) {
		s, base, _ := queryServer(t, log)
		if _, err := s.compact(48*time.Hour, 1); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if st := s.StatsNow(); st.SealedEvents == 0 || st.RetainedEvents == 0 {
			t.Fatalf("want a sealed+retained split, got sealed=%d retained=%d", st.SealedEvents, st.RetainedEvents)
		}
		return s, base
	}
	_, ref := split()
	s, base := split()
	busy := topology.CNameOf(simEvents()[0].Node)
	paths := []string{
		"/top?by=node&k=10",
		"/top?by=node&k=10&cabinet=c3-*",
		"/top?by=serial&k=5&code=13",
		"/top?by=code&k=3",
		"/top?by=node&k=0",
		"/top?by=node&k=10&partial=1",
		"/rollup?by=code&bucket=24h",
		"/rollup?by=code,cabinet&bucket=1h",
		"/rollup?by=cage&bucket=6h&cage=2",
		"/rollup?by=node&bucket=24h&code=13",
		"/rollup?by=code,cabinet&bucket=6h&partial=1",
		"/rollup?by=cabinet,cage&bucket=168h",
		"/rollup?by=code,cabinet,cage&bucket=60s",
		queryURL("", "* | by cabinet | bucket 7d"),
		queryURL("", "code=31 cabinet=c3-* | by cage | bucket 6h | top 5"),
		queryURL("", "code!=13 | top serial 10"),
		queryURL("", "code=13,31 | by code,cage | bucket 1d | top 7"),
		queryURL("", "* | top node 10") + "&partial=1",
		queryURL("", "cage=1 | top node 5"),
		"/nodes/" + busy + "/history",
		"/nodes/" + busy + "/history?limit=3",
	}
	serial := make([][]byte, len(paths))
	for i, path := range paths {
		serial[i] = getBody(t, ref+path)
	}
	if st := s.StatsNow(); st.NodeIndexBytes != 0 {
		t.Fatalf("the readers' server built %d B of node index before they started", st.NodeIndexBytes)
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; n < 2*len(paths); n++ {
				i := (r*5 + n*7) % len(paths) // each reader its own order
				resp, err := http.Get(base + paths[i])
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d, %v", paths[i], resp.StatusCode, err)
					return
				}
				if !bytes.Equal(body, serial[i]) {
					t.Errorf("GET %s beside seven other readers is not its serial answer:\ngot:  %.300s\nwant: %.300s", paths[i], body, serial[i])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if st := s.StatsNow(); st.NodeIndexBytes == 0 {
		t.Error("no node index was built: the readers never took the index paths")
	}
}
