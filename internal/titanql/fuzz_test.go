package titanql_test

import (
	"bytes"
	"testing"

	"titanre/internal/titanql"
)

// FuzzTitanQLParse is the differential parser fuzzer: Parse never
// panics on any input, and every accepted query round-trips — its
// canonical String() re-parses to a plan that renders the identical
// string (String∘Parse is a fixed point after one step).
func FuzzTitanQLParse(f *testing.F) {
	for _, q := range []string{
		"*",
		"code=48 cabinet=c3-* since=2014-01-01 | by cage | bucket 6h | top 5",
		"code=13,31 code!=sbe | by code,cabinet | bucket 1d",
		"node=c?-1c2s* cage=2 | top serial 10",
		"* | top node",
		"until=2015-06-01T12:30:00Z | bucket 90m | top 1",
		"code=otb|by node|bucket 2h",
		"* | by code | by cage",
		"!= = | |",
		"code==13",
		"cabinet=c[!3]-* | by cage",
		"node=!c3* cabinet=a! | top code",
		"code!=13 node=c[!0]!=x",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		p, err := titanql.Parse(q)
		if err != nil {
			return
		}
		canon := p.String()
		again, err := titanql.Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok but canonical %q fails to re-parse: %v", q, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse(%q): canonical %q re-renders as %q", q, canon, got)
		}
	})
}

// FuzzTitanQLEquivalence is the plan-equivalence fuzzer: any query that
// parses and compiles must execute byte-identically on both paths —
// the segment-parallel bitmap scan over the sealed/tail snapshot versus
// the naive event-by-event fold over the materialized stream.
func FuzzTitanQLEquivalence(f *testing.F) {
	for _, q := range []string{
		"* | by code | bucket 1h",
		"code=48 cabinet=c3-* | by cage | bucket 6h | top 5",
		"code=13,31 code!=31 cage=1 | by cabinet | bucket 12h",
		"node=c3-* | top node 5",
		"code=sbe | top serial 3",
		"* | top node 10",
		"cabinet=c3-* cage=1 | top serial 2",
		"code!=13 | top code 2",
		"since=2014-01-02 until=2014-01-05 | by code,cage | bucket 1d",
		"code=65549 | by code | bucket 1h",
		"code!=65549 | by code | bucket 1h",
		"code=65549 | top node 5",
		"cabinet=c[!3]-* | by cage | bucket 1d",
		// Location filters under a ranking by node: the count pass and the
		// winners' detail rows both go through the segments' node indexes.
		"node=c3-2c1s4n2 | top node 3",
		"node=c?-1c2s* | top node 5",
		"cage=0 | top node 10",
		"cabinet=c3-* | top node 4",
		"cabinet=c[!3]-* cage=2 | top node 7",
		"code=13 cabinet=c*-0 | top node 2",
		"code!=13 node=c1-* | top node 6",
	} {
		f.Add(q)
	}
	for _, q := range adversarialQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		plan, err := titanql.Parse(q)
		if err != nil {
			return
		}
		c, err := plan.Compile()
		if err != nil {
			return // bad glob or cage — rejected at compile, fine
		}
		fx := qlFixture()
		naive, err := c.FoldEvents(fx.all)
		if err != nil {
			t.Fatalf("FoldEvents(%q): %v", q, err)
		}
		res, err := c.Fold(fx.segs, fx.tail, 3, false)
		if err != nil {
			t.Fatalf("Fold(%q): %v", q, err)
		}
		// What is served — the result rendering itself — against
		// encoding/json over the naive fold's document.
		if got, want := res.AppendJSON(nil), indented(t, naive.Doc()); !bytes.Equal(got, want) {
			t.Fatalf("query %q: compiled plan diverges from naive fold\ngot:  %s\nwant: %s", q, got, want)
		}
	})
}
