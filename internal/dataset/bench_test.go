package dataset

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"titanre/internal/race"
	"titanre/internal/sim"
	"titanre/internal/store"
)

// benchRun is the seed-17, three-month simulation every load benchmark
// and budget below reads, run once.
var benchRun = sync.OnceValue(func() *sim.Result {
	cfg := sim.DefaultConfig()
	cfg.Seed = 17
	cfg.End = cfg.Start.AddDate(0, 3, 0)
	return sim.Run(cfg)
})

// benchDir writes the three-month dataset for the load benchmarks,
// sealed into columnar segments too when segments is set.
func benchDir(tb testing.TB, segments bool) (string, sim.Config) {
	tb.Helper()
	res := benchRun()
	dir := tb.TempDir()
	if err := Write(dir, res); err != nil {
		tb.Fatal(err)
	}
	if segments {
		if err := WriteSegments(dir, res.Events, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return dir, res.Config
}

// BenchmarkLoadSerial loads the four artifacts one after another with the
// serial console parser — the PR 2 load path.
func BenchmarkLoadSerial(b *testing.B) {
	dir, cfg := benchDir(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadWorkers(dir, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadParallel loads the artifacts concurrently and parses the
// console log in newline-aligned shards at the machine's width.
func BenchmarkLoadParallel(b *testing.B) {
	dir, cfg := benchDir(b, false)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadWorkers(dir, cfg, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadColumnar loads the same dataset through its sealed
// columnar segments (dataset.LoadStore): events come from struct-of-
// arrays columns instead of a console re-parse.
func BenchmarkLoadColumnar(b *testing.B) {
	dir, cfg := benchDir(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LoadStoreWorkers(dir, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadColumnarBudget holds one columnar load of the three-month
// dataset (BenchmarkLoadColumnar's body, once) to a fifth of the
// allocations and a third of the bytes the flat console re-parse cost
// when segments replaced it (650,176 allocs, 309,617,456 B).
func TestLoadColumnarBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime's own bookkeeping moves allocation figures")
	}
	const allocBudget, byteBudget = 130_035, 103_205_818
	dir, cfg := benchDir(t, true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := LoadStoreWorkers(dir, cfg, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("columnar load: %d allocations, %d B", allocs, bytes)
	if allocs > allocBudget {
		t.Errorf("columnar load made %d allocations, budget is %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("columnar load allocated %d B, budget is %d", bytes, byteBudget)
	}
}

// TestStoreMemHarness holds the sealed column store to 64 resident heap
// bytes per retained event on the same three months.
func TestStoreMemHarness(t *testing.T) {
	if race.Enabled {
		t.Skip("a three-month simulation under the race runtime, for a figure it cannot move")
	}
	const budget = 64.0
	dir := t.TempDir()
	if err := WriteSegments(dir, benchRun().Events, 0); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(filepath.Join(dir, SegmentsDir))
	if err != nil {
		t.Fatal(err)
	}
	if st.EventCount() == 0 {
		t.Fatal("no events sealed")
	}
	perEvent := float64(st.MemBytes()) / float64(st.EventCount())
	t.Logf("sealed store: %.1f heap B/event (MemBytes %d / EventCount %d)", perEvent, st.MemBytes(), st.EventCount())
	if perEvent > budget {
		t.Errorf("sealed store holds %.1f heap B/event, budget is %.0f", perEvent, budget)
	}
}

// BenchmarkScanCode measures the bitmap column scan: materializing one
// code's events from sealed segments, popcount-sized.
func BenchmarkScanCode(b *testing.B) {
	dir := b.TempDir()
	if err := WriteSegments(dir, benchRun().Events, 0); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(filepath.Join(dir, SegmentsDir))
	if err != nil {
		b.Fatal(err)
	}
	codes := st.Codes()
	// One iteration scans every code once, touching all columns; MB/s is
	// reported against the store's resident column bytes.
	b.SetBytes(st.MemBytes())
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for _, code := range codes {
			n += len(st.ScanCode(code))
		}
	}
	if n == 0 {
		b.Fatal("scan returned no events")
	}
}
