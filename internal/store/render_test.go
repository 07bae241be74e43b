package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/jsonw"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// encodingJSON is the oracle every AppendJSON is held to: the bytes
// encoding/json's Encoder writes for the same value under
// SetIndent("", "  ").
func encodingJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameRender(t *testing.T, what string, doc jsonw.Appender) {
	t.Helper()
	// A dirty prefix: AppendJSON must append, not overwrite or assume an
	// empty buffer.
	got := doc.AppendJSON([]byte("prefix"))
	if want := append([]byte("prefix"), encodingJSON(t, doc)...); !bytes.Equal(got, want) {
		t.Errorf("%s: AppendJSON diverges from encoding/json\ngot:  %.1500s\nwant: %.1500s", what, got[len("prefix"):], want[len("prefix"):])
	}
}

// streamed renders acc through the one cell renderer: its document (the k
// best cells, code echoed) or, raw, its partial — bare when query is "",
// otherwise under the titanql envelope, where the cells sit a level deeper.
func streamed(buf []byte, acc *Rollup, query string, k int, code string, raw bool) []byte {
	w := jsonw.W{Buf: buf}
	if query != "" {
		w.Obj()
		w.Key("query").Str(query)
		w.OmitInt("ranked_top", int64(k))
		w.Key("rollup")
	}
	if raw {
		acc.WritePartialJSON(&w)
	} else {
		acc.WriteJSON(&w, k, code)
	}
	if query != "" {
		w.EndObj()
	}
	return append(w.Buf, '\n')
}

// envelope is titanql.Doc and titanql.Partial as far as a rollup goes.
type envelope struct {
	Query     string `json:"query"`
	RankedTop int    `json:"ranked_top,omitempty"`
	Rollup    any    `json:"rollup"`
}

// sameStream holds every face of acc that is served — the bare document,
// the document under the envelope, the partial under it — to
// encoding/json over the struct Doc, RankedDoc and Partial build.
func sameStream(t *testing.T, what string, acc *Rollup, k int, code string) {
	t.Helper()
	doc := acc.RankedDoc(k)
	doc.Code = code
	for _, c := range []struct {
		face      string
		got, want []byte
	}{
		{"bare doc", streamed(nil, acc, "", k, code, false), encodingJSON(t, doc)},
		{"doc", streamed(nil, acc, "q | by <x>", k, code, false), encodingJSON(t, envelope{"q | by <x>", k, doc})},
		{"partial", streamed(nil, acc, "q", k, "", true), encodingJSON(t, envelope{"q", k, acc.Partial()})},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s, top %d, %s: the streamed bytes diverge from encoding/json\ngot:  %.1500s\nwant: %.1500s", what, k, c.face, c.got, c.want)
		}
	}
}

// TestRollupAppendJSONMatchesEncodingJSON: what Rollup.WriteJSON and
// WritePartialJSON stream is byte for byte what encoding/json writes for
// RankedDoc and Partial, over the adversarial fixture (codes at the
// int16 extremes, pre-epoch and backwards-running times) for every
// grouping, with and without a code filter, ranked with ties across the
// cut and past the cell count; then over the edges of the spelling: no
// cell, one cell, SBE and OTB and a code no catalogue names, cabinet 0 /
// cage 0 / node 0 (members a partial omits and a document does not), a
// bucket before the epoch and one in the year 9999.
func TestRollupAppendJSONMatchesEncodingJSON(t *testing.T) {
	events := adversarialEvents()
	specs := map[string]struct {
		spec RollupSpec
		also extra
	}{
		"time series":      {spec: RollupSpec{Bucket: time.Hour}},
		"code":             {spec: RollupSpec{ByCode: true, Bucket: 24 * time.Hour}},
		"cabinet":          {spec: RollupSpec{ByCabinet: true, Bucket: 7 * 24 * time.Hour}},
		"cage only":        {spec: RollupSpec{ByCage: true, Bucket: 24 * time.Hour}},
		"cage+node":        {spec: RollupSpec{ByCage: true, ByNode: true, Bucket: 24 * time.Hour}},
		"all dims":         {spec: RollupSpec{ByCode: true, ByCabinet: true, ByCage: true, ByNode: true, Bucket: time.Second}},
		"filtered min":     {RollupSpec{ByCabinet: true, ByCage: true, Bucket: time.Hour}, extra{filterCode: true, code: math.MinInt16}},
		"filtered nothing": {RollupSpec{ByCode: true, Bucket: time.Hour}, extra{filterCode: true, code: 77}},
		"bounded":          {RollupSpec{ByCode: true, Bucket: time.Hour}, extra{since: time.Unix(-86400, 0).UTC(), until: time.Unix(86400, 5).UTC()}},
	}
	for name, c := range specs {
		acc, err := ParallelRollupAcc(nil, events, c.spec, c.also.matcher(t, Predicate{Cage: -1}), 1)
		if err != nil {
			t.Fatal(err)
		}
		echo := "" // what unwrapping for /rollup?code= adds to the document
		if c.also.filterCode {
			echo = c.also.code.String()
			if acc.Total() != int64(len(c.also.kept(events, nil))) {
				t.Fatalf("%s: folded %d rows, the fixture holds %d of the code", name, acc.Total(), len(c.also.kept(events, nil)))
			}
		}
		for _, k := range []int{0, 1, 3, 17, 1 << 40} {
			sameStream(t, name, acc, k, echo)
		}
	}

	edge := func(sec int64, node topology.NodeID, code xid.Code) console.Event {
		return console.Event{Time: time.Unix(sec, 0).UTC(), Node: node, Code: code}
	}
	year9999 := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
	edges := []console.Event{
		edge(-1, 0, xid.SingleBitError), edge(-1, 0, xid.SingleBitError), edge(0, 0, xid.OffTheBus),
		edge(0, topology.NodesPerCage, 0), edge(year9999, topology.TotalNodes-1, 77),
		edge(year9999, 1, math.MaxInt16), edge(-90000, topology.NodesPerCabinet, math.MinInt16),
	}
	for name, events := range map[string][]console.Event{"no cell": nil, "one cell": edges[:2], "edges": edges} {
		for dims := 0; dims < 16; dims++ {
			spec := RollupSpec{ByCode: dims&1 != 0, ByCabinet: dims&2 != 0, ByCage: dims&4 != 0, ByNode: dims&8 != 0, Bucket: time.Hour}
			acc, err := ParallelRollupAcc(nil, events, spec, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 2, len(events), len(events) + 1} {
				sameStream(t, fmt.Sprintf("%s %+v", name, spec), acc, k, "")
			}
			if doc := acc.Doc(); doc.By == nil || doc.Cells == nil {
				t.Fatal("a rollup holds empty slices, which render [], never nil ones")
			}
		}
	}
}

// TestRankedDocMatchesStableSort: RankedDoc(k) keeps exactly what the
// stable count-descending sort of the full document's cells keeps —
// ties across the cut broken by canonical order — for k below, at and
// past the cell count.
func TestRankedDocMatchesStableSort(t *testing.T) {
	events := adversarialEvents()
	for name, spec := range map[string]RollupSpec{
		"code x day":   {ByCode: true, Bucket: 24 * time.Hour},
		"node x hour":  {ByNode: true, Bucket: time.Hour}, // almost every cell counts 1 or 2: ties everywhere
		"cage by week": {ByCage: true, Bucket: 7 * 24 * time.Hour},
	} {
		acc, err := ParallelRollupAcc(nil, events, spec, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		full := acc.Doc()
		for _, k := range []int{1, 2, 5, 50, len(full.Cells) - 1, len(full.Cells), len(full.Cells) + 7} {
			want := acc.Doc()
			sort.SliceStable(want.Cells, func(i, j int) bool { return want.Cells[i].Count > want.Cells[j].Count })
			want.Cells = want.Cells[:min(k, len(want.Cells))]
			if got := acc.RankedDoc(k); !bytes.Equal(encodingJSON(t, got), encodingJSON(t, want)) {
				t.Errorf("%s top %d: RankedDoc diverges from the stable sort of Doc", name, k)
			}
		}
		if got := acc.RankedDoc(0); !bytes.Equal(encodingJSON(t, got), encodingJSON(t, full)) {
			t.Errorf("%s: RankedDoc(0) is not Doc", name)
		}
	}
}

// TestTopAppendJSONMatchesEncodingJSON: TopDoc and TopPartial, every
// dimension — by=serial and by=node carry by_code maps whose keys
// encoding/json sorts as strings ("-1" < "-32768" < "100" < "13"), K
// larger than the keys, K cutting through ties, and empty.
func TestTopAppendJSONMatchesEncodingJSON(t *testing.T) {
	events := adversarialEvents()
	for _, by := range []TopBy{TopByNode, TopBySerial, TopByCode} {
		for _, k := range []int{0, 1, 4, 1 << 40} {
			for _, also := range []extra{
				{},
				{filterCode: true, code: xid.Code(math.MaxInt16)},
				{since: time.Unix(-86400, 0).UTC(), until: time.Unix(0, 0).UTC()},
			} {
				acc, err := ParallelTopAcc(nil, events, TopSpec{By: by, K: k}, also.matcher(t, Predicate{Cage: -1}), 1, true)
				if err != nil {
					t.Fatal(err)
				}
				doc := acc.Doc()
				if also.filterCode {
					doc.Code = also.code.String() // /top?code='s echo
				}
				sameRender(t, "top doc", doc)
				sameRender(t, "top partial", acc.Partial())
			}
		}
		empty, _ := NewTop(TopSpec{By: by, K: 3})
		sameRender(t, "empty top doc", empty.Doc())
		sameRender(t, "empty top partial", empty.Partial())
	}
}

// TestRenderAllocsIndependentOfCells: what rendering allocates follows
// neither the cells nor the cards — four times the cells stream out
// with the same allocation count (encoding/json made one or more per
// cell, the cell structs two).
func TestRenderAllocsIndependentOfCells(t *testing.T) {
	events := adversarialEvents()
	render := func(spec RollupSpec, events []console.Event) (float64, int) {
		acc, err := ParallelRollupAcc(nil, events, spec, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, 8<<20)
		return testing.AllocsPerRun(5, func() { buf = streamed(buf[:0], acc, "", 0, "", false) }), len(acc.Doc().Cells)
	}
	spec := RollupSpec{ByCode: true, ByNode: true, Bucket: time.Hour}
	a, few := render(spec, events[:len(events)/4])
	b, many := render(spec, events)
	if many < 3*few {
		t.Fatalf("fixture: %d and %d cells, want about 4x", few, many)
	}
	if math.Abs(a-b) > 2 {
		t.Errorf("render: %v allocations for %d cells, %v for %d", a, few, b, many)
	}

	top := func(k int) float64 {
		acc, err := ParallelTopAcc(nil, events, TopSpec{By: TopBySerial, K: k}, nil, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		doc, buf := acc.Doc(), make([]byte, 0, 1<<20)
		return testing.AllocsPerRun(5, func() { buf = doc.AppendJSON(buf[:0]) })
	}
	if a, b := top(1), top(3); math.Abs(a-b) > 2 {
		t.Errorf("render: %v allocations for 1 card, %v for 3", a, b)
	}
}

func BenchmarkRenderRollup(b *testing.B) {
	var events []console.Event
	for i := 0; i < 12000; i++ {
		events = append(events, console.Event{Time: time.Unix(1370000000+int64(i/200)*7*86400, 0).UTC(), Node: topology.NodeID(i % 200 * topology.NodesPerCabinet), Code: 13})
	}
	acc, err := ParallelRollupAcc(nil, events, RollupSpec{ByCabinet: true, Bucket: 7 * 24 * time.Hour}, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = streamed(buf[:0], acc, "", 0, "", false)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodingJSON(b, acc.Doc())
		}
	})
	b.Run("doc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc.Doc()
		}
	})
}
