package dataset

import (
	"bytes"
	"testing"

	"titanre/internal/core"
	"titanre/internal/sim"
)

// tinyColumnarDataset writes a flat dataset plus its sealed segments,
// returning the directory and the strict-load golden Result.
func tinyColumnarDataset(t *testing.T) (string, *sim.Result) {
	t.Helper()
	res := tinyResult(t)
	dir := t.TempDir()
	if err := Write(dir, res); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadWorkers(dir, res.Config, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Seal from the raw simulation events: second-truncation during
	// sealing mirrors what the console line format does, so the store
	// must still reproduce the parsed log exactly.
	if err := WriteSegments(dir, res.Events, 1000); err != nil {
		t.Fatal(err)
	}
	return dir, loaded
}

// TestColumnarLoadIdentical: loading through the segment store must
// assemble the identical Result to parsing the console log — and
// LoadWorkers must auto-detect the segments.
func TestColumnarLoadIdentical(t *testing.T) {
	dir, want := tinyColumnarDataset(t)

	res, st, err := LoadStoreWorkers(dir, want.Config, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.SegmentCount() == 0 {
		t.Fatal("LoadStore returned no store")
	}
	if core.DatasetDigest(res) != core.DatasetDigest(want) {
		t.Fatal("columnar load digest differs from console-log load")
	}
	if len(res.Events) != len(want.Events) {
		t.Fatalf("columnar load has %d events, want %d", len(res.Events), len(want.Events))
	}
	for i := range want.Events {
		if res.Events[i] != want.Events[i] {
			t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, res.Events[i], want.Events[i])
		}
	}

	// Auto-detection: the plain loader must take the columnar path and
	// produce the same result.
	if !HasSegments(dir) {
		t.Fatal("HasSegments is false on a dataset with sealed segments")
	}
	auto, err := LoadWorkers(dir, want.Config, 1)
	if err != nil {
		t.Fatal(err)
	}
	if core.DatasetDigest(auto) != core.DatasetDigest(want) {
		t.Fatal("auto-detected columnar load digest differs")
	}
}

// TestColumnarReportIdentical: a report rendered off the column-scan
// index must be byte-identical to one rendered off the struct walk.
func TestColumnarReportIdentical(t *testing.T) {
	dir, want := tinyColumnarDataset(t)

	var flat bytes.Buffer
	core.FromResult(want).WriteReport(&flat)

	res, st, err := LoadStore(dir, want.Config)
	if err != nil {
		t.Fatal(err)
	}
	var columnar bytes.Buffer
	core.FromStore(res, st).WriteReport(&columnar)

	if !bytes.Equal(flat.Bytes(), columnar.Bytes()) {
		t.Fatalf("columnar report differs from flat report (%d vs %d bytes)", columnar.Len(), flat.Len())
	}
}

// TestColumnarQueryIdentical: titanql plans run through a store-backed
// study (compiled, segment-parallel over the sealed segments — the
// titanreport -query path) render byte-identically to the naive fold
// over the flat-loaded event stream.
func TestColumnarQueryIdentical(t *testing.T) {
	dir, want := tinyColumnarDataset(t)
	res, st, err := LoadStore(dir, want.Config)
	if err != nil {
		t.Fatal(err)
	}
	flat, columnar := core.FromResult(want), core.FromStore(res, st)
	for _, q := range []string{
		"* | by code | bucket 1h",
		"code=48 cabinet=c3-* | by cage | bucket 6h | top 5",
		"code=13,31 | top node 10",
	} {
		a, err := flat.Query(q, 0)
		if err != nil {
			t.Fatalf("flat Query(%q): %v", q, err)
		}
		b, err := columnar.Query(q, 0)
		if err != nil {
			t.Fatalf("columnar Query(%q): %v", q, err)
		}
		aj, bj := a.AppendJSON(nil), b.AppendJSON(nil)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("Query(%q): columnar execution diverges from the flat fold\ngot:  %s\nwant: %s", q, bj, aj)
		}
	}
}

// TestWriteSegmentsRefusesDoubleSeal guards against double-counting.
func TestWriteSegmentsRefusesDoubleSeal(t *testing.T) {
	dir, want := tinyColumnarDataset(t)
	if err := WriteSegments(dir, want.Events, 0); err == nil {
		t.Fatal("second WriteSegments into the same dataset succeeded")
	}
}
