package serve

import (
	"bytes"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/durable"
	"titanre/internal/ingest"
)

// journalRecords returns what the journal in dir holds as written: every
// file's bytes past its header, in sequence order.
func journalRecords(t testing.TB, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	var out []byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data[walHeaderSize:]...)
	}
	return out
}

// wantFrames is the journal's contract spelled the long way: each event's
// record is its length, the CRC-32C of its rendering, its rendering.
func wantFrames(events []console.Event) []byte {
	var out []byte
	for _, ev := range events {
		raw := ev.AppendRaw(nil)
		out = walByteOrder.AppendUint32(out, uint32(len(raw)))
		out = walByteOrder.AppendUint32(out, crc32.Checksum(raw, castagnoli))
		out = append(out, raw...)
	}
	return out
}

// TestJournalFramesMatchRender: whatever a body holds, the records the
// request's goroutine frames out of the decoder's renderings and the
// applier writes are, byte for byte, len ‖ crc32c ‖ AppendRaw(ev) over
// the events that body decodes to, in order — a refused line, chatter, a
// blank or an oversized record leaves nothing — and replaying them
// through OpenJournal gives those events back.
func TestJournalFramesMatchRender(t *testing.T) {
	events := simEvents()[:3000]
	clean := encodeLog(t, events)
	whole := string(encodeLog(t, events[:1]))
	whole = whole[:len(whole)-1]
	if !strings.Contains(whole, "(0000:02:00.0)") || !strings.Contains(whole, " serial=") {
		t.Fatalf("sample line %q is not shaped as the cases below assume", whole)
	}

	// Every line mutator internal/ingest has, at a rate that fires each.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "console.log"), clean, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ingest.CorruptDataset(dir, ingest.CorruptOptions{Rate: 0.3, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range []string{ingest.MutTruncate, ingest.MutTear, ingest.MutInterleave, ingest.MutDuplicate, ingest.MutReorder, ingest.MutGarble, ingest.MutJunk} {
		if rep.Categories[mut] == 0 {
			t.Fatalf("mutator %s never fired: %v", mut, rep.Categories)
		}
	}
	corrupted, err := os.ReadFile(filepath.Join(dir, "console.log"))
	if err != nil {
		t.Fatal(err)
	}

	regexPath := strings.Join([]string{
		strings.Replace(whole, "(0000:02:00.0)", "(0000:04:00.0)", 1), // foreign bus id
		whole,
		strings.Replace(whole, " serial=", "  serial=", 1),
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48, An uncorrectable double bit error (DBE) has been detected on GPU. job=42 serial=1234 unit=framebuffer page=777", // reordered
		strings.Replace(whole, " serial=", " serial=0", 1), // leading zero
		whole[:len(whole)/2], // truncated mid-description: still an event
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: loading driver",
	}, "\n") + "\n"
	endings := whole + "\r\n\n\r\n" + strings.Repeat("x", 1<<20+1) + "\n" + whole + "\n\n" + whole + "\r" // no final newline

	for _, tc := range []struct {
		name      string
		bodies    [][]byte
		tagged    bool
		fallbacks bool // some line must reach the regex path and still be an event
	}{
		{"clean", chunkLog(clean, 1024), false, false},
		{"corrupted", chunkLog(corrupted, 500), false, true},
		{"regex path", [][]byte{[]byte(regexPath)}, false, true},
		{"CRLF, blank and oversized", [][]byte{[]byte(endings)}, false, false},
		{"router-tagged sub-batches", chunkLog(corrupted, 700), true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := writePathServer(t)
			h := s.Handler()
			var want []console.Event
			base := uint64(0)
			for i, body := range tc.bodies {
				req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
				if tc.tagged {
					tagAll(req, base, console.CountLines(body))
					base += 10_000
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusAccepted {
					t.Fatalf("body %d: status %d %s", i, rec.Code, rec.Body)
				}
				decoded, err := console.NewCorrelator().ParseBytes(body, 1)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, decoded...)
			}
			quiesce(t, s)
			st := s.StatsNow()
			if int(st.EventsApplied) != len(want) || len(want) == 0 {
				t.Fatalf("applied %d events, the bodies decode to %d", st.EventsApplied, len(want))
			}
			if tc.fallbacks && st.FastFallbacks == 0 {
				t.Fatal("no line took the regex path")
			}
			if err := s.journal.Load().Sync(); err != nil {
				t.Fatal(err)
			}
			if got, want := journalRecords(t, s.cfg.JournalDir), wantFrames(want); !bytes.Equal(got, want) {
				t.Fatalf("journal holds %d bytes of records, want %d: first difference at %d", len(got), len(want), firstDiff(got, want))
			}

			// Replay the same bytes, as one file, off a durable.Mem: the
			// live journal stays the daemon's.
			replay := JournalConfig{Dir: "/journal", FS: durable.NewMem()}
			err := replay.FS.MkdirAll(replay.Dir)
			var f durable.File
			if err == nil {
				f, err = replay.FS.Create(filepath.Join(replay.Dir, "wal-00000000000000000000.wal"))
			}
			if err == nil {
				hdr := make([]byte, walHeaderSize)
				copy(hdr, walMagic)
				walByteOrder.PutUint32(hdr[8:], walVersion)
				_, err = f.Write(append(hdr, journalRecords(t, s.cfg.JournalDir)...))
			}
			if err != nil {
				t.Fatal(err)
			}
			var lines bytes.Buffer
			_, jrep, err := OpenJournal(replay, 0, func(line []byte) error {
				lines.Write(line)
				lines.WriteByte('\n')
				return nil
			})
			if err != nil || jrep.Torn || jrep.Records != len(want) {
				t.Fatalf("replay: %+v (%v), want %d whole records", jrep, err, len(want))
			}
			replayed, err := console.NewCorrelator().ParseAll(&lines)
			if err != nil || !slices.Equal(replayed, want) {
				t.Fatalf("the replayed records parse to %d events (%v), not the %d decoded", len(replayed), err, len(want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestOneRenderOneWritePerBatch counts, it does not time: from POST to
// applied a fast-path line is rendered by AppendRaw once — the decode
// gate's rendering is the journal record (the parent rendered it again in
// the applier) — and the journal's file receives one Write a batch.
func TestOneRenderOneWritePerBatch(t *testing.T) {
	var renders atomic.Int64
	t.Cleanup(func() { console.Renders = nil }) // registered first, so it runs after the server's shutdown
	batches := shapedBatches(t, 8)
	mem := durable.NewMem()
	cfg := memConfig(mem, FsyncOff)
	cfg.CompactAge = 10 * time.Minute
	s := testServer(t, cfg)
	if _, err := s.WarmStart(stateDir); err != nil {
		t.Fatal(err)
	}
	mem.Record(true)
	console.Renders = &renders
	ingestAll(t, s, batches)
	st := s.StatsNow()
	if st.EventsApplied != 8*1024 || st.FastHits != 8*1024 {
		t.Fatalf("applied %d events, %d on the fast path; want 8192 of each", st.EventsApplied, st.FastHits)
	}
	if got := renders.Load(); got != 8*1024 {
		t.Errorf("AppendRaw ran %d times for 8192 fast-path lines, want once each", got)
	}
	writes := 0
	for _, c := range mem.Cuts() {
		if c.Op == durable.OpWrite && strings.HasPrefix(c.Path, cfg.JournalDir) {
			writes++
		}
	}
	mem.Record(false)
	if writes != len(batches) || st.Journal.Appends != 8*1024 {
		t.Errorf("the journal file took %d writes for %d batches (%d records)", writes, len(batches), st.Journal.Appends)
	}
}
