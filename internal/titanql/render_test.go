package titanql_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"titanre/internal/titanql"
)

func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendJSONMatchesEncodingJSON: for the whole equivalence mix — both
// plan kinds, ranked and not, empty results, rank bounds past the key
// count, the adversarial rows — every face a Result renders is the bytes
// encoding/json writes for the struct it names: the document for Doc, the
// bare store document for what is inside it (with and without a code
// echo), the replica partial for Partial. The query echo is where
// escaping bites: a quoted cname carries \" into it.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	fx := qlFixture()
	queries := append(equivalenceQueries(fx.mid),
		`node="c0-0c0s0n2" | by code | bucket 1d`,
		`node="c3-*" | top serial 3`,
	)
	escaped := false
	for _, q := range queries {
		plan, err := titanql.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		c, err := plan.Compile()
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		fold := func(partial bool) *titanql.Result {
			res, err := c.Fold(fx.segs, fx.tail, 1, partial)
			if err != nil {
				t.Fatalf("Fold(%q): %v", q, err)
			}
			return res
		}
		same := func(face string, res *titanql.Result, want any) {
			t.Helper()
			if got, want := res.AppendJSON([]byte("prefix")), append([]byte("prefix"), indented(t, want)...); !bytes.Equal(got, want) {
				t.Fatalf("query %q: the rendered %s diverges from encoding/json\ngot:  %.2000s\nwant: %.2000s", q, face, got, want)
			}
		}
		res, part := fold(false), fold(true)
		doc := res.Doc()
		same("document", res, doc)
		same("partial", part, part.Partial())
		for _, code := range []string{"", "48", "nonsense"} {
			res.Bare(code)
			echo := map[string]string{"48": "XID 48"}[code]
			if doc.Top != nil {
				doc.Top.Code = echo
				same("bare ranking", res, doc.Top)
			} else {
				doc.Rollup.Code = echo
				same("bare rollup", res, doc.Rollup)
			}
		}
		part.Bare("48")
		same("partial, asked bare", part, part.Partial())
		escaped = escaped || strings.Contains(doc.Query, `"`)
	}
	if !escaped {
		t.Fatal("no query echo needed escaping; the mix lost its quoted cname")
	}
}

// TestRankMatchesStableSort holds `| top N` to the definition it
// replaced: the stable count-descending sort of the unranked document's
// cells, cut at N — so ties across the cut fall in canonical order.
func TestRankMatchesStableSort(t *testing.T) {
	fx := qlFixture()
	for _, base := range []string{
		"* | by code | bucket 6h",
		"* | by cage,node | bucket 1d", // counts of 1 and 2 almost everywhere: the cut always lands in a tie
		"until=1970-01-02 | by code,node | bucket 1s",
		"code=99 | by code | bucket 1h",
	} {
		full, err := titanql.Run(base, fx.segs, fx.tail, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"1", "2", "7", "50", "1099511627776"} {
			ranked, err := titanql.Run(base+" | top "+n, fx.segs, fx.tail, 2)
			if err != nil {
				t.Fatal(err)
			}
			want := *full.Rollup
			want.Cells = append(want.Cells[:0:0], want.Cells...)
			sort.SliceStable(want.Cells, func(i, j int) bool { return want.Cells[i].Count > want.Cells[j].Count })
			want.Cells = want.Cells[:min(ranked.RankedTop, len(want.Cells))]
			if !bytes.Equal(indented(t, ranked.Rollup), indented(t, want)) {
				t.Fatalf("%q | top %s: ranked cells are not the stable sort of the full document cut at %s", base, n, n)
			}
		}
	}
}
