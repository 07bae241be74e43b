package core

import (
	"testing"

	"titanre/internal/analysis"
	"titanre/internal/sim"
	"titanre/internal/store"
	"titanre/internal/topology"
)

// TestStudyQueryStoreBacked: Study.Query over a store-backed study (the
// compiled segment-parallel path) renders byte-identically to the same
// query over the plain event-backed study (the naive fold) — the
// titanreport -query side of the standing equivalence gate. The
// store-backed side is exercised through dataset round trips in
// internal/dataset; here both studies share one simulated result, so
// only the execution path differs.
func TestStudyQueryStoreBacked(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 0, 7)
	study := New(cfg)
	for _, q := range []string{
		"* | by code | bucket 1h",
		"code=48 cabinet=c3-* | by cage | bucket 6h | top 5",
		"code=sbe | top serial 5",
	} {
		res, err := study.Query(q, 0)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		doc := res.Doc()
		if doc.Query == "" || (doc.Rollup == nil && doc.Top == nil) {
			t.Fatalf("Query(%q): empty document", q)
		}
		again, err := study.Query(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.AppendJSON(nil)) != string(again.AppendJSON(nil)) {
			t.Fatalf("Query(%q) differs across worker counts", q)
		}
	}
	if _, err := study.Query("frob=1", 0); err == nil {
		t.Fatal("bad query succeeded")
	}
}

// TestFigureGridsMatchTitanQL is the written reason analysis keeps its
// own month / cabinet / cage counters beside store.Rollup (calendar
// months are not fixed-width buckets, so Figs 2/4/6 cannot be a rollup):
// where the two can answer the same question they must agree. The
// cabinet floor maps and cage totals of Figs 3(a), 3(b), 5 and 7,
// recomputed as titanql plans over the full study sealed into a store,
// equal analysis' counters cell for cell.
func TestFigureGridsMatchTitanQL(t *testing.T) {
	s := defaultStudy(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 1 << 16
	events := s.Result.Events
	for lo := 0; lo < len(events); lo += chunk {
		if _, err := st.Seal(events[lo:min(lo+chunk, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	sealed := FromStore(s.Result, st)

	// cells folds a plan's cells over time into per-key totals.
	cells := func(q string, key func(store.RollupCell) int) map[int]int64 {
		t.Helper()
		res, err := sealed.Query(q, 0)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		out := map[int]int64{}
		for _, c := range res.Doc().Rollup.Cells {
			out[key(c)] += c.Count
		}
		return out
	}
	fig5Grid, fig5Cages := s.Fig5OTBSpatial()
	fig7Grid, fig7Cages := s.Fig7RetirementSpatial()
	for _, fig := range []struct {
		name, filter string
		grid         analysis.Grid
		cages        analysis.CageCounts
	}{
		{"Fig 3(a)/3(b) DBE", "code=48", s.Fig3aDBESpatial(), s.Fig3bDBECages()},
		{"Fig 5 off the bus", "code=otb", fig5Grid, fig5Cages},
		{"Fig 7 page retirement", "code=63,64", fig7Grid, fig7Cages},
	} {
		if fig.grid.Total() == 0 {
			t.Fatalf("%s: empty figure", fig.name)
		}
		byCabinet := cells(fig.filter+" | by cabinet | bucket 24h", func(c store.RollupCell) int { return *c.Cabinet })
		for row := range fig.grid {
			for col, want := range fig.grid[row] {
				if got := byCabinet[row*topology.Columns+col]; got != want {
					t.Errorf("%s: cabinet row %d column %d: titanql %d, analysis %d", fig.name, row, col, got, want)
				}
			}
		}
		byCage := cells(fig.filter+" | by cage | bucket 24h", func(c store.RollupCell) int { return *c.Cage })
		for cage, want := range fig.cages.All {
			if got := byCage[cage]; got != want {
				t.Errorf("%s: cage %d: titanql %d, analysis %d", fig.name, cage, got, want)
			}
		}
	}
}
