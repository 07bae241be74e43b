package ingest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"titanre/internal/console"
)

// dbeLine renders a parseable double-bit-error console line at the given
// wall-clock second (mirrors console.Event.Raw for XID 48).
func dbeLine(ts string) string {
	return "[" + ts + "] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48, " +
		"An uncorrectable double bit error (DBE) has been detected on GPU. " +
		"serial=1234 job=42 unit=framebuffer page=777"
}

func ingestLines(t *testing.T, lines ...string) ([]console.Event, *ArtifactHealth) {
	t.Helper()
	input := strings.Join(lines, "\n")
	events, h, err := IngestConsole(strings.NewReader(input), console.NewCorrelator(), DefaultOptions())
	if err != nil {
		t.Fatalf("IngestConsole: %v", err)
	}
	checkAccounting(t, h)
	return events, h
}

// checkAccounting asserts the package invariant: every physical line
// lands in exactly one bucket.
func checkAccounting(t *testing.T, h *ArtifactHealth) {
	t.Helper()
	if h.Read != h.Accepted+h.Recovered+h.Quarantined {
		t.Errorf("%s: accounting broken: read %d != accepted %d + recovered %d + quarantined %d",
			h.Name, h.Read, h.Accepted, h.Recovered, h.Quarantined)
	}
}

func TestStripJunk(t *testing.T) {
	cases := []struct{ in, want string }{
		{"clean line", "clean line"},
		{"tabs\tsurvive", "tabs\tsurvive"},
		{"cr tail\r", "cr tail"},
		{"nul\x00byte", "nulbyte"},
		{"\x01\x02bell\x07", "bell"},
		{"bad\xff\xfeutf8", "badutf8"},
		{"del\x7fchar", "delchar"},
		{"", ""},
	}
	for _, c := range cases {
		if got := stripJunk(c.in); got != c.want {
			t.Errorf("stripJunk(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCleanStreamAccepted(t *testing.T) {
	events, h := ingestLines(t,
		dbeLine("2014-02-03 11:52:07"),
		dbeLine("2014-02-03 11:53:07"),
		dbeLine("2014-02-03 11:54:07"),
	)
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if !h.Clean() {
		t.Errorf("clean stream should leave a clean ledger: %+v", h)
	}
	if h.Accepted != 3 {
		t.Errorf("accepted %d, want 3", h.Accepted)
	}
}

func TestTornRejoin(t *testing.T) {
	whole := dbeLine("2014-02-03 11:52:07")
	k := strings.Index(whole, "double")
	events, h := ingestLines(t, whole[:k], whole[k:])
	if len(events) != 1 {
		t.Fatalf("torn line not rejoined: %d events", len(events))
	}
	if events[0].Raw() != whole {
		t.Errorf("rejoined event renders differently:\n got %s\nwant %s", events[0].Raw(), whole)
	}
	if h.ByCategory[RecRejoined] != 2 {
		t.Errorf("rejoined count %d, want 2", h.ByCategory[RecRejoined])
	}
	if h.Quarantined != 0 {
		t.Errorf("nothing should be quarantined, got %d", h.Quarantined)
	}
}

func TestInterleavedRejoin(t *testing.T) {
	// The torn record's tail arrives after an unrelated complete record —
	// the classic interleaved concurrent write.
	torn := dbeLine("2014-02-03 11:55:00")
	k := strings.Index(torn, "double")
	events, h := ingestLines(t,
		torn[:k],
		dbeLine("2014-02-03 11:52:07"),
		torn[k:],
	)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if h.ByCategory[RecRejoined] != 2 {
		t.Errorf("rejoined count %d, want 2", h.ByCategory[RecRejoined])
	}
}

func TestResyncWindowExpires(t *testing.T) {
	whole := dbeLine("2014-02-03 11:55:00")
	k := strings.Index(whole, "double")
	lines := []string{whole[:k]}
	for i := 0; i < DefaultOptions().ResyncWindow+1; i++ {
		lines = append(lines, dbeLine(fmt.Sprintf("2014-02-03 11:56:%02d", i)))
	}
	lines = append(lines, whole[k:])
	events, h := ingestLines(t, lines...)
	// The tear expired: the head — a parseable if annotation-starved
	// record — is kept as a degraded event, the orphaned tail is
	// quarantined.
	if len(events) != DefaultOptions().ResyncWindow+2 {
		t.Fatalf("got %d events, want %d", len(events), DefaultOptions().ResyncWindow+2)
	}
	if h.ByCategory[RecTornHead] != 1 {
		t.Errorf("torn-head-kept count %d, want 1: %+v", h.ByCategory[RecTornHead], h.ByCategory)
	}
	if h.Quarantined != 1 || h.ByCategory[CatNoHeader] != 1 {
		t.Errorf("quarantined %d (%+v), want 1 orphan tail as no-header", h.Quarantined, h.ByCategory)
	}
	// The late-emitted head must still land in timestamp order.
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			t.Errorf("events out of order at %d: %v after %v", i, events[i].Time, events[i-1].Time)
		}
	}
}

func TestDuplicateDropped(t *testing.T) {
	line := dbeLine("2014-02-03 11:52:07")
	events, h := ingestLines(t, line, line)
	if len(events) != 1 {
		t.Fatalf("adjacent duplicate not dropped: %d events", len(events))
	}
	if h.ByCategory[RecDuplicate] != 1 {
		t.Errorf("duplicate count %d, want 1", h.ByCategory[RecDuplicate])
	}
}

func TestOutOfOrderRepaired(t *testing.T) {
	events, h := ingestLines(t,
		dbeLine("2014-02-03 11:53:07"),
		dbeLine("2014-02-03 11:52:07"), // regressed timestamp
	)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if !events[0].Time.Before(events[1].Time) {
		t.Errorf("stream not re-sorted: %v then %v", events[0].Time, events[1].Time)
	}
	if h.ByCategory[RecReordered] != 1 {
		t.Errorf("reordered count %d, want 1", h.ByCategory[RecReordered])
	}
	if h.Accepted != 1 || h.Recovered != 1 {
		t.Errorf("accepted %d recovered %d, want 1 and 1", h.Accepted, h.Recovered)
	}
}

func TestJunkStripped(t *testing.T) {
	whole := dbeLine("2014-02-03 11:52:07")
	smeared := whole[:40] + "\x00\x07\xff\xfe" + whole[40:]
	events, h := ingestLines(t, smeared)
	if len(events) != 1 {
		t.Fatalf("junk-smeared line not recovered: %d events", len(events))
	}
	if events[0].Raw() != whole {
		t.Errorf("repaired event renders differently:\n got %s\nwant %s", events[0].Raw(), whole)
	}
	if h.ByCategory[RecStripped] != 1 {
		t.Errorf("junk-stripped count %d, want 1", h.ByCategory[RecStripped])
	}
}

func TestQuarantineCategories(t *testing.T) {
	whole := dbeLine("2014-02-03 11:52:07")
	events, h := ingestLines(t,
		whole,
		strings.Replace(dbeLine("2014-02-03 11:53:07"), "serial=1234", "serial=zz9q", 1),
		"[2014-02-03 11:54:99] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48, An uncorrectable double bit error (DBE) has been detected on GPU. serial=1 job=2",
		"free-floating garbage with no header",
	)
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1 (only the intact line)", len(events))
	}
	for cat, want := range map[Category]int{
		CatBadAnnotation: 1,
		CatBadTime:       1,
		CatNoHeader:      1,
	} {
		if h.ByCategory[cat] != want {
			t.Errorf("category %s: %d, want %d", cat, h.ByCategory[cat], want)
		}
	}
	if h.Quarantined != 3 {
		t.Errorf("quarantined %d, want 3", h.Quarantined)
	}
	if len(h.Quarantine) != 3 {
		t.Errorf("quarantine detail has %d entries, want 3", len(h.Quarantine))
	}
}

func TestChatterAccepted(t *testing.T) {
	events, h := ingestLines(t,
		"[2014-02-03 11:52:00] c3-2c1s4n2 kernel: NVRM: loading NVIDIA UNIX x86_64 Kernel Module.",
		dbeLine("2014-02-03 11:52:07"),
	)
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	if !h.Clean() {
		t.Errorf("benign chatter should not dirty the ledger: %+v", h)
	}
}

func TestCleanInputMatchesParseAll(t *testing.T) {
	lines := []string{
		dbeLine("2014-02-03 11:52:07"),
		"[2014-02-03 11:52:08] c3-2c1s4n2 kernel: NVRM: loading NVIDIA UNIX x86_64 Kernel Module.",
		dbeLine("2014-02-03 11:53:07"),
		"",
		dbeLine("2014-02-03 11:54:07"),
	}
	input := strings.Join(lines, "\n") + "\n"
	want, err := console.NewCorrelator().ParseAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	got, h, err := IngestConsole(strings.NewReader(input), console.NewCorrelator(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, h)
	if !h.Clean() {
		t.Errorf("clean input should yield a clean ledger")
	}
	if len(got) != len(want) {
		t.Fatalf("resilient path got %d events, fail-fast got %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestIngestJobLogTornRow(t *testing.T) {
	row := "7\t12\tcapability\t2013-06-01T00:00:00Z\t2013-06-01T01:00:00Z\t2013-06-01T02:00:00Z\t10.000\t5.000\tfalse\t12-19,40"
	k := strings.Index(row, "capability") + 3
	input := strings.Join([]string{
		"#id\tuser\tclass\tsubmit\tstart\tend\tmaxmem_gb\tavgmem_gb\tbuggy\tnodes",
		row[:k],
		row[k:],
		row,
	}, "\n")
	// The third copy of the row is not adjacent to a duplicate, so both
	// the rejoined and the intact row survive.
	recs, h, err := IngestJobLog(strings.NewReader(input), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, h)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (rejoined + intact)", len(recs))
	}
	if h.ByCategory[RecRejoined] != 2 {
		t.Errorf("rejoined count %d, want 2", h.ByCategory[RecRejoined])
	}
	if recs[0].ID != recs[1].ID || recs[0].Nodes.Len() != 9 {
		t.Errorf("rejoined record decoded wrong: %+v", recs[0])
	}
}

func TestIngestJobLogGarbledRow(t *testing.T) {
	row := "7\t12\tcapability\t2013-06-01T00:00:00Z\t2013-06-01T01:00:00Z\t2013-06-01T02:00:00Z\t10.000\t5.000\tfalse\t12-19"
	// An over-wide invalid row can never be a torn fragment: straight to
	// quarantine. A garbled-in-place row (field replaced, width intact) is
	// held as a torn-write candidate and dead-lettered as torn-fragment
	// when nothing ever completes it.
	overwide := row + "\tzz9q"
	garbled := strings.Replace(row, "2013-06-01T00:00:00Z", "zz9q", 1)
	recs, h, err := IngestJobLog(strings.NewReader(row+"\n"+overwide+"\n"+garbled+"\n"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, h)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if h.ByCategory[CatBadRow] != 1 {
		t.Errorf("bad-row count %d, want 1: %+v", h.ByCategory[CatBadRow], h.ByCategory)
	}
	if h.ByCategory[CatTorn] != 1 {
		t.Errorf("torn-fragment count %d, want 1: %+v", h.ByCategory[CatTorn], h.ByCategory)
	}
}

func TestRetry(t *testing.T) {
	calls := 0
	err := Retry(5, time.Microsecond, func() (bool, error) {
		calls++
		if calls < 3 {
			return false, errors.New("transient")
		}
		return false, nil
	})
	if err != nil || calls != 3 {
		t.Errorf("flaky fn: err=%v calls=%d, want nil and 3", err, calls)
	}

	calls = 0
	permanent := errors.New("permanent")
	err = Retry(5, time.Microsecond, func() (bool, error) {
		calls++
		return true, permanent
	})
	if !errors.Is(err, permanent) || calls != 1 {
		t.Errorf("permanent fn: err=%v calls=%d, want permanent after 1 call", err, calls)
	}

	calls = 0
	err = Retry(3, time.Microsecond, func() (bool, error) {
		calls++
		return false, errors.New("always")
	})
	if err == nil || calls != 3 {
		t.Errorf("exhausted fn: err=%v calls=%d, want error after 3 calls", err, calls)
	}
}

func TestOpenWithRetry(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenWithRetry(filepath.Join(dir, "nope"), DefaultOptions()); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err=%v, want ErrNotExist", err)
	}
	path := filepath.Join(dir, "log")
	if err := os.WriteFile(path, []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenWithRetry(path, DefaultOptions())
	if err != nil {
		t.Fatalf("existing file: %v", err)
	}
	f.Close()
}
