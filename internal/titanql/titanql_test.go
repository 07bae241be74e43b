package titanql_test

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/sim"
	"titanre/internal/store"
	"titanre/internal/titanql"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// TestParseCanonical: every accepted spelling renders to its canonical
// form, and the canonical form is a fixed point of Parse∘String.
func TestParseCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"*", "* | bucket 1h"},
		{"* | bucket 1h", "* | bucket 1h"},
		{"code=48 cabinet=c3-* since=2014-01-01 | by cage | bucket 6h | top 5",
			"code=48 cabinet=c3-* since=2014-01-01T00:00:00Z | by cage | bucket 6h | top 5"},
		{"code=31,13,13", "code=13,31 | bucket 1h"},
		{"code=-1,otb", "code=otb,sbe | bucket 1h"},
		{"code!=sbe code=48", "code=48 code!=sbe | bucket 1h"},
		{"  code = 13 |  by  node,code ", "code=13 | by code,node | bucket 1h"},
		{"* | by code, cage", "* | by code,cage | bucket 1h"},
		{"* | bucket 24h", "* | bucket 1d"},
		{"* | bucket 90m", "* | bucket 90m"},
		{"* | bucket 2d", "* | bucket 2d"},
		{"* | top node", "* | top node 20"},
		{"* | top serial 5", "* | top serial 5"},
		{"* | top code 0", "* | top code 0"},
		{"cage=2 until=2015-06-01T12:30:00Z", "cage=2 until=2015-06-01T12:30:00Z | bucket 1h"},
		{"since=2014-01-01T00:00:00+02:00", "since=2013-12-31T22:00:00Z | bucket 1h"},
		{"node=c?-1c2s* | top 3 | by node", "node=c?-1c2s* | by node | bucket 1h | top 3"},
	}
	for _, tc := range cases {
		p, err := titanql.Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := p.String(); got != tc.want {
			t.Fatalf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		again, err := titanql.Parse(tc.want)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", tc.want, err)
		}
		if got := again.String(); got != tc.want {
			t.Fatalf("canonical %q re-renders as %q", tc.want, got)
		}
	}
}

// TestParseErrors: malformed queries fail with errors, never panic,
// and never silently drop a clause.
func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"   ",
		"code=",
		"=13",
		"code!13",
		"code!",
		"foo=1",
		"node!=c3-*",
		"* code=13",
		"code=13 code=31",
		"code!=13 code!=31",
		"cage=x",
		"cage=-2",
		"since=yesterday",
		"code=,",
		"* |",
		"* | | by code",
		"* | by",
		"* | by foo",
		"* | bucket",
		"* | bucket 0s",
		"* | bucket 1h 2h",
		"* | bucket 500ms",
		"* | top",
		"* | top 0",
		"* | top -3",
		"* | top node x",
		"* | top node 1 2",
		"* | top blade",
		"* | by code | by cage",
		"* | top 5 | top 6",
		"* | by cage | top node",
		"* | bucket 1h | top serial",
		"* | frobnicate 3",
	} {
		if _, err := titanql.Parse(q); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", q)
		}
	}
}

// adversarialEvents are rows chosen to trip a block kernel's shortcuts
// (the store's own oracle test folds the same shapes): times on both
// sides of the epoch that jump backwards from row to row, the int16
// extremes among more distinct codes than a ranking's per-code row
// starts with, nodes at cage and cabinet edges, runs of identical rows.
func adversarialEvents() []console.Event {
	codes := []xid.Code{-32768, 32767, -2, -1, 0, 13, 48}
	for c := xid.Code(100); c < 114; c++ {
		codes = append(codes, c)
	}
	nodes := []topology.NodeID{0, 31, 32, 95, 96, 9600, topology.TotalNodes - 1}
	var events []console.Event
	for i := 0; i < 3000; i++ {
		sec := int64(i)*211 - 2*86400
		if i%5 == 0 {
			sec -= int64(i%7) * 40000 // backwards, often across the epoch
		}
		e := console.Event{
			Time:   time.Unix(sec, 0).UTC(),
			Node:   nodes[(i*7+i/11)%len(nodes)],
			Code:   codes[(i*5+i/13)%len(codes)],
			Serial: gpu.Serial(500 + i%3),
			Page:   console.NoPage,
		}
		events = append(events, e)
		if i%4 == 0 {
			events = append(events, e)
		}
	}
	return events
}

// qlFixture seals most of a short simulated run into small segments and
// keeps the rest as a retained tail — the (sealed, tail) snapshot shape
// every query executes over — then adds the adversarial rows, half as one
// more sealed segment and half on the tail.
var qlFixture = sync.OnceValue(func() struct {
	segs []*store.Segment
	tail []console.Event
	all  []console.Event
	mid  time.Time
} {
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 0, 10)
	res := sim.Run(cfg)
	var log bytes.Buffer
	if err := console.WriteLog(&log, res.Events); err != nil {
		panic(err)
	}
	events, err := console.NewCorrelator().ParseAll(bytes.NewReader(log.Bytes()))
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "titanql-test")
	if err != nil {
		panic(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	cut := len(events) * 7 / 8
	const chunk = 4096
	for lo := 0; lo < cut; lo += chunk {
		hi := min(lo+chunk, cut)
		if _, err := st.Seal(events[lo:hi]); err != nil {
			panic(err)
		}
	}
	mid := events[len(events)/2].Time
	odd := adversarialEvents()
	if _, err := st.Seal(odd[:len(odd)/2]); err != nil {
		panic(err)
	}
	tail := append(append([]console.Event(nil), events[cut:]...), odd[len(odd)/2:]...)
	return struct {
		segs []*store.Segment
		tail []console.Event
		all  []console.Event
		mid  time.Time
	}{st.Segments(), tail, append(events, odd...), mid}
})

// equivalenceQueries is the standing gate's query mix: every predicate
// dimension, both plan kinds, ranked and unranked.
func equivalenceQueries(mid time.Time) []string {
	ts := mid.UTC().Format(time.RFC3339)
	qs := []string{
		"* | by code | bucket 1h",
		"* | bucket 6h",
		"code=48 cabinet=c3-* | by cage | bucket 6h | top 5",
		"code=13,31 code!=31 | by cabinet | bucket 1d",
		"cage=2 | bucket 30m | top 3",
		"node=c?-1* | by node | bucket 12h | top 10",
		"code=sbe since=" + ts + " | by code,cage | bucket 2h",
		"until=" + ts + " | by cabinet,cage | bucket 3h",
		"* | top node 5",
		"code=sbe | top serial 10",
		"cabinet=c*-0 | top code 0",
		"code=99 | by code | bucket 1h", // absent code: empty result
		// Codes outside the segments' int16 column match nothing; they
		// must not alias the XID they truncate to (65549 -> 13).
		"code=65549 | by code | bucket 1h",
		"code!=65549 | by code | bucket 1h",
		"code=65549 | top node 5",
		"node=c3-2c1s4n2 | by code | bucket 1d", // literal cname: Compile's parse path
	}
	return append(qs, adversarialQueries...)
}

// adversarialQueries aim at the fixture's adversarial rows: one-second
// and wider-than-the-stream buckets over times that straddle the epoch
// and run backwards, the int16-extreme codes, a ranking over more codes
// than its per-code rows start with, by cage,node (the one grouping
// whose canonical order is not node order), and a rank bound far past
// the key count. FuzzTitanQLEquivalence starts from them too.
var adversarialQueries = []string{
	"* | by code | bucket 1s",
	"until=1970-01-02 | by code,node | bucket 1s | top 7",
	"* | by code,cage | bucket 4000d",
	"* | by cage,node | bucket 1d",
	"code=-32768,32767 | by code,cabinet | bucket 90m",
	"code!=-32768 since=1969-12-30 until=1970-01-03 | top node 3",
	"* | top serial 4",
	"* | top code 0",
	"* | top node 1099511627776",
}

// TestExecuteMatchesNaive is the standing equivalence gate: for every
// query, the compiled segment-parallel execution byte-matches the naive
// fold over the materialized stream, at every worker count.
func TestExecuteMatchesNaive(t *testing.T) {
	fx := qlFixture()
	for _, q := range equivalenceQueries(fx.mid) {
		plan, err := titanql.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		c, err := plan.Compile()
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		naive, err := c.FoldEvents(fx.all)
		if err != nil {
			t.Fatalf("FoldEvents(%q): %v", q, err)
		}
		want := naive.Doc()
		wantJSON := mustJSON(t, want)
		for _, workers := range []int{1, 2, 5, 0} {
			got, err := c.Execute(fx.segs, fx.tail, workers)
			if err != nil {
				t.Fatalf("Execute(%q, workers=%d): %v", q, workers, err)
			}
			if gotJSON := mustJSON(t, got); !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("query %q workers=%d: compiled plan diverges from naive fold\ngot:  %s\nwant: %s",
					q, workers, gotJSON, wantJSON)
			}
			// And what is served: the result rendering itself.
			res, err := c.Fold(fx.segs, fx.tail, workers, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.AppendJSON(nil), indented(t, want)) {
				t.Fatalf("query %q workers=%d: the rendered result diverges from the naive fold's document", q, workers)
			}
		}
		// Run is the same three steps fused.
		got, err := titanql.Run(q, fx.segs, fx.tail, 0)
		if err != nil {
			t.Fatalf("Run(%q): %v", q, err)
		}
		if !bytes.Equal(mustJSON(t, got), wantJSON) {
			t.Fatalf("Run(%q) diverges from naive fold", q)
		}
	}
}

// TestRankedCellsDeterministic: the rank stage keeps the highest-count
// cells with stable canonical tie order — a prefix check against the
// unranked document.
func TestRankedCellsDeterministic(t *testing.T) {
	fx := qlFixture()
	full, err := titanql.Run("* | by code | bucket 6h", fx.segs, fx.tail, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := titanql.Run("* | by code | bucket 6h | top 4", fx.segs, fx.tail, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ranked.RankedTop != 4 || len(ranked.Rollup.Cells) > 4 {
		t.Fatalf("ranked doc kept %d cells, RankedTop=%d", len(ranked.Rollup.Cells), ranked.RankedTop)
	}
	if full.Rollup.TotalEvents != ranked.Rollup.TotalEvents {
		t.Fatal("ranking changed total_events; it must only trim cells")
	}
	for i := 1; i < len(ranked.Rollup.Cells); i++ {
		if ranked.Rollup.Cells[i].Count > ranked.Rollup.Cells[i-1].Count {
			t.Fatal("ranked cells not in descending count order")
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
