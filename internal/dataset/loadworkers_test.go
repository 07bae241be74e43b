package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"titanre/internal/console"
	"titanre/internal/core"
	"titanre/internal/ingest"
)

// TestLoadWorkersDigests: the SHA-256 digest of the loaded dataset must be
// identical at every load width — the serial Load, one worker, two, and
// the machine's width — and for the resilient loader on a clean dataset.
// This is the golden-digest determinism gate for the sharded console
// parser and the concurrent artifact loaders.
func TestLoadWorkersDigests(t *testing.T) {
	res := tinyResult(t)
	dir := t.TempDir()
	if err := Write(dir, res); err != nil {
		t.Fatal(err)
	}

	serial, err := LoadWorkers(dir, res.Config, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The flat files are lossy against the in-memory simulation (fleet
	// state, sub-record detail), so the golden digest is taken from the
	// serial load — what every other width must reproduce exactly.
	want := core.DatasetDigest(serial)
	if len(serial.Events) == 0 || len(serial.Jobs) == 0 {
		t.Fatal("golden dataset is empty; digest comparison would be vacuous")
	}

	widths := []int{2, 3, runtime.GOMAXPROCS(0)}
	for _, w := range widths {
		got, err := LoadWorkers(dir, res.Config, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if d := core.DatasetDigest(got); d != want {
			t.Errorf("workers=%d: dataset digest %x, want %x", w, d, want)
		}
	}

	// The default Load is LoadWorkers at machine width.
	viaLoad, err := Load(dir, res.Config)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.DatasetDigest(viaLoad); d != want {
		t.Errorf("Load: dataset digest %x, want %x", d, want)
	}

	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		got, health, err := LoadResilientWorkers(dir, res.Config, ingest.DefaultOptions(), w)
		if err != nil {
			t.Fatalf("resilient workers=%d: %v", w, err)
		}
		if !health.Clean() {
			t.Errorf("resilient workers=%d: clean dataset reported unhealthy", w)
		}
		if d := core.DatasetDigest(got); d != want {
			t.Errorf("resilient workers=%d: dataset digest %x, want %x", w, d, want)
		}
	}
}

// TestConsoleEncodeDecodeRoundTrip: parsing the written console.log and
// re-encoding the events must reproduce the file byte for byte. This
// pins the zero-allocation codec to the on-disk format.
func TestConsoleEncodeDecodeRoundTrip(t *testing.T) {
	res := tinyResult(t)
	dir := t.TempDir()
	if err := Write(dir, res); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(filepath.Join(dir, ConsoleFile))
	if err != nil {
		t.Fatal(err)
	}

	c := console.NewCorrelator()
	events, err := c.ParseBytes(orig, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Dropped != 0 || c.Malformed != 0 || c.Oversized != 0 {
		t.Fatalf("written log should parse losslessly: dropped=%d malformed=%d oversized=%d",
			c.Dropped, c.Malformed, c.Oversized)
	}
	if len(events) != len(res.Events) {
		t.Fatalf("parsed %d events, simulation produced %d", len(events), len(res.Events))
	}

	var serial bytes.Buffer
	if err := console.WriteLog(&serial, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), orig) {
		t.Error("serial re-encoding differs from the original console.log bytes")
	}
}
