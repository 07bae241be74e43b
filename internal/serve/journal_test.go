package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/durable"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// collectLines returns an apply callback appending copies of replayed
// records to out.
func collectLines(out *[][]byte) func([]byte) error {
	return func(line []byte) error {
		*out = append(*out, append([]byte(nil), line...))
		return nil
	}
}

func journalCfg(dir string) JournalConfig {
	return JournalConfig{Dir: dir, Fsync: FsyncOff}
}

func appendAll(t *testing.T, j *Journal, lines []string) {
	t.Helper()
	for _, l := range lines {
		j.Append([]byte(l))
	}
	j.Commit()
	if err := j.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// appendEach commits after every record, the way the applier commits
// after every batch; rotation is only checked at commit boundaries.
func appendEach(t *testing.T, j *Journal, lines []string) {
	t.Helper()
	for _, l := range lines {
		j.Append([]byte(l))
		j.Commit()
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rep, err := OpenJournal(journalCfg(dir), 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rep.Records != 0 || rep.Torn {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	want := []string{"alpha", "bravo charlie", "", "delta"}
	appendAll(t, j, want)
	if j.Stats().NextSeq != uint64(len(want)) {
		t.Fatalf("next seq %d, want %d", j.Stats().NextSeq, len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	var got [][]byte
	j2, rep2, err := OpenJournal(journalCfg(dir), 0, collectLines(&got))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if rep2.Records != len(want) || rep2.Torn {
		t.Fatalf("replay %+v, want %d records untorn", rep2, len(want))
	}
	for i, l := range want {
		if string(got[i]) != l {
			t.Fatalf("record %d = %q, want %q", i, got[i], l)
		}
	}
	if j2.Stats().NextSeq != uint64(len(want)) {
		t.Fatalf("reopened next seq %d, want %d", j2.Stats().NextSeq, len(want))
	}
}

func TestJournalSkip(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(journalCfg(dir), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, []string{"s0", "s1", "s2", "s3", "s4"})
	j.Close()

	var got [][]byte
	_, rep, err := OpenJournal(journalCfg(dir), 3, collectLines(&got))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.Skipped != 3 {
		t.Fatalf("replay %+v, want 2 records / 3 skipped", rep)
	}
	if string(got[0]) != "s3" || string(got[1]) != "s4" {
		t.Fatalf("replayed %q, want the unsealed tail", got)
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn frame; replay
// applies the valid prefix, truncates the tear, and appending resumes
// contiguously.
func TestJournalTornTail(t *testing.T) {
	corruptions := []struct {
		name string
		chop func(size int64) int64 // bytes to keep
	}{
		{"half-frame-header", func(size int64) int64 { return size - 2 }},
		{"half-payload", func(size int64) int64 { return size - 5 }},
		{"frame-only", func(size int64) int64 { return size - 9 }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _, err := OpenJournal(journalCfg(dir), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, j, []string{"one", "two", "three-intact", "victim-ab"})
			j.Close()
			files, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
			if len(files) != 1 {
				t.Fatalf("want 1 wal file, have %v", files)
			}
			info, err := os.Stat(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(files[0], tc.chop(info.Size())); err != nil {
				t.Fatal(err)
			}

			var got [][]byte
			j2, rep, err := OpenJournal(journalCfg(dir), 0, collectLines(&got))
			if err != nil {
				t.Fatalf("reopen over torn tail: %v", err)
			}
			if !rep.Torn || rep.Records != 3 {
				t.Fatalf("replay %+v, want 3 records and Torn", rep)
			}
			if j2.Stats().NextSeq != 3 {
				t.Fatalf("resume seq %d, want 3", j2.Stats().NextSeq)
			}
			appendAll(t, j2, []string{"four"})
			j2.Close()

			got = nil
			_, rep3, err := OpenJournal(journalCfg(dir), 0, collectLines(&got))
			if err != nil {
				t.Fatal(err)
			}
			if rep3.Torn || rep3.Records != 4 {
				t.Fatalf("third open %+v, want 4 clean records", rep3)
			}
			if string(got[3]) != "four" {
				t.Fatalf("post-tear append replayed as %q", got[3])
			}
		})
	}
}

// TestJournalBitFlip: a corrupted CRC stops replay at the bad record,
// treating everything after as lost — the prefix property.
func TestJournalBitFlip(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(journalCfg(dir), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, []string{"good-0", "good-1", "flipme", "unreachable"})
	j.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the third record's payload.
	off := walHeaderSize + 2*(walFrameSize+6) + walFrameSize + 2
	data[off] ^= 0x01
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	_, rep, err := OpenJournal(journalCfg(dir), 0, collectLines(&got))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || rep.Records != 2 {
		t.Fatalf("replay %+v, want to stop after 2 records", rep)
	}
	if string(got[1]) != "good-1" {
		t.Fatalf("prefix %q", got)
	}
}

// TestJournalRotationAndTruncate: rotation by size produces multiple
// files; truncation deletes exactly the files the sealed floor covers
// and replay of the remainder still reconstructs the tail.
func TestJournalRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	cfg := journalCfg(dir)
	cfg.RotateBytes = 256 // tiny: force rotations
	j, _, err := OpenJournal(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const total = 100
	var lines []string
	for i := 0; i < total; i++ {
		lines = append(lines, fmt.Sprintf("record-%03d-padding-padding", i))
	}
	appendEach(t, j, lines)
	if j.Stats().Rotations < 3 {
		t.Fatalf("only %d rotations at a 256-byte cap", j.Stats().Rotations)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	j.Truncate(60)
	after, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if len(after) >= len(before) {
		t.Fatalf("truncate removed nothing (%d -> %d files)", len(before), len(after))
	}
	j.Close()

	var got [][]byte
	_, rep, err := OpenJournal(cfg, 60, collectLines(&got))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != total-60 {
		t.Fatalf("replayed %d records after truncate(60), want %d", rep.Records, total-60)
	}
	if string(got[0]) != lines[60] || string(got[len(got)-1]) != lines[total-1] {
		t.Fatalf("tail replay bounds wrong: %q .. %q", got[0], got[len(got)-1])
	}
}

// TestJournalGap: a deleted middle file is a sequence gap; replay stops
// before it and the unusable later files are removed.
func TestJournalGap(t *testing.T) {
	dir := t.TempDir()
	cfg := journalCfg(dir)
	cfg.RotateBytes = 256
	j, _, err := OpenJournal(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := 0; i < 60; i++ {
		lines = append(lines, fmt.Sprintf("record-%03d-padding-padding", i))
	}
	appendEach(t, j, lines)
	j.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if len(files) < 3 {
		t.Fatalf("need >= 3 files for a middle gap, have %d", len(files))
	}
	if err := os.Remove(files[1]); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	j2, rep, err := OpenJournal(cfg, 0, collectLines(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.FilesRemoved != len(files)-2 {
		t.Fatalf("removed %d gapped files, want %d", rep.FilesRemoved, len(files)-2)
	}
	for i, l := range got {
		if string(l) != lines[i] {
			t.Fatalf("record %d = %q, want %q", i, l, lines[i])
		}
	}
	if int(j2.Stats().NextSeq) != len(got) {
		t.Fatalf("resume seq %d after %d contiguous records", j2.Stats().NextSeq, len(got))
	}
}

// TestJournalWedgeRecovers: a failing write wedges the journal (events
// keep applying, failures are counted) and the next commit recovers by
// rotating; the gap is explicit in the file headers, so replay stops at
// it instead of silently skipping records. A short write leaves half a
// record behind as well: replay truncates that torn tail and stops there.
func TestJournalWedgeRecovers(t *testing.T) {
	for _, short := range []bool{false, true} {
		t.Run(fmt.Sprint("short=", short), func(t *testing.T) {
			mem := durable.NewMem()
			cfg := JournalConfig{Dir: "/journal", Fsync: FsyncOff, FS: mem}
			j, _, err := OpenJournal(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			j.Append([]byte("pre-0"))
			j.Append([]byte("pre-1"))
			j.Commit()
			mem.Fail(durable.Fault{Op: durable.OpWrite, Path: "/journal/", N: 1, Err: syscall.EIO, Short: short})
			// The batch's one write fails and wedges; a short one stops
			// inside the first record.
			j.Append([]byte("dropped-2, the longer record of the two"))
			j.Append([]byte("dropped-3"))
			j.Commit() // recovery rotation
			st := j.Stats()
			if st.AppendFailures != 2 || st.Wedged {
				t.Fatalf("stats %+v, want 2 failures and recovered", st)
			}
			j.Append([]byte("post-4"))
			j.Commit()
			if j.Stats().NextSeq != 5 {
				t.Fatalf("next seq %d, want 5 (gap counted)", j.Stats().NextSeq)
			}
			j.Close()

			var got [][]byte
			_, rep, err := OpenJournal(cfg, 0, collectLines(&got))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Records != 2 || string(got[1]) != "pre-1" || rep.Torn != short || rep.FilesRemoved != 1 {
				t.Fatalf("replay past the gap: %+v %q; want the two records before it, torn %v, the gapped file removed", rep, got, short)
			}
			first, err := mem.ReadFile("/journal/" + fmt.Sprintf("wal-%020d.wal", 0))
			if want := walHeaderSize + 2*walFrameSize + len("pre-0") + len("pre-1"); err != nil || len(first) != want {
				t.Fatalf("first journal file holds %d bytes (%v) after replay, want %d: the torn tail truncated", len(first), err, want)
			}
		})
	}
}

// journalFixture is a fixed event set for the journal's on-disk figure:
// 8,192 events from a generator that depends on nothing but these
// constants — nine codes, pages and structures on the ECC ones, a job on
// two in three — in time order.
func journalFixture() []console.Event {
	codes := []xid.Code{xid.SingleBitError, xid.OffTheBus, 13, 31, 43, 45, 48, 62, 63}
	state := uint64(2015)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33 % uint64(n))
	}
	sec := int64(1370000000)
	events := make([]console.Event, 0, 8192)
	for len(events) < cap(events) {
		sec += int64(1 + next(60))
		node := topology.NodeID(next(topology.TotalNodes))
		e := console.Event{
			Time:   time.Unix(sec, 0).UTC(),
			Node:   node,
			Serial: gpu.Serial(100000 + 3*int(node) + next(3)),
			Code:   codes[next(len(codes))],
			Page:   console.NoPage,
		}
		if e.Code == 48 || e.Code == 63 {
			e.Structure, e.StructureValid = gpu.Structure(next(gpu.NumStructures)), true
			e.Page = int32(next(1 << 20))
		}
		if next(3) > 0 {
			e.Job = console.JobID(500000 + next(4000))
		}
		events = append(events, e)
	}
	return events
}

// TestJournalBytesPinned is the journal half of the wire-figure gate
// (the store half is TestSealedBytesPinned): the fixed set, journaled
// the way the applier does it — 1,024-event batches, a commit each,
// files rotated at 256 KiB — occupies exactly these bytes: a 20-byte
// header a file and 8 bytes of frame around each event's AppendRaw
// rendering. bench/ reads serve.journal_bytes_per_event off its own
// corpus; this is the figure that repeats, and a change to the frame,
// the rendering or the rotation shows here first, on purpose or not.
func TestJournalBytesPinned(t *testing.T) {
	const (
		wantBytes = 1166840
		wantFiles = 5
	)
	events := journalFixture()
	cfg := journalCfg(t.TempDir())
	cfg.RotateBytes = 256 << 10
	j, _, err := OpenJournal(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rendered int64
	for lo := 0; lo < len(events); lo += 1024 {
		j.appendEvents(events[lo : lo+1024])
	}
	for _, e := range events {
		rendered += int64(len(e.AppendRaw(nil)))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, entry := range entries {
		info, err := entry.Info()
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
	}
	t.Logf("%d events in %d files: %d bytes, %.4f B/event", len(events), len(entries), size, float64(size)/float64(len(events)))
	if want := rendered + int64(len(events))*walFrameSize + int64(len(entries))*walHeaderSize; size != want {
		t.Errorf("journal holds %d bytes; %d rendered + a frame an event + a header a file is %d", size, rendered, want)
	}
	if size != wantBytes || len(entries) != wantFiles {
		t.Errorf("journal is %d bytes in %d files; pinned %d in %d", size, len(entries), wantBytes, wantFiles)
	}
}

// TestJournalTornBelowFloorKeepsSequence: a file torn inside records the
// sealed floor already covers — page-cache writeback lost part of a file
// whose events were sealed since — still resumes numbering at the floor,
// not at the tear, or the next restart would skip the records appended
// after this one.
func TestJournalTornBelowFloorKeepsSequence(t *testing.T) {
	mem := durable.NewMem()
	cfg := JournalConfig{Dir: "/journal", Fsync: FsyncOff, FS: mem}
	j, _, err := OpenJournal(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, []string{"r0", "r1", "r2", "r3"})
	j.Close()
	name := "/journal/" + fmt.Sprintf("wal-%020d.wal", 0)
	if err := mem.Truncate(name, walHeaderSize+2*(walFrameSize+2)+3); err != nil { // inside r2
		t.Fatal(err)
	}
	const floor = 10 // sealed, by the floor, past everything the file held
	j2, rep, err := OpenJournal(cfg, floor, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !rep.Torn || j2.Stats().NextSeq != floor {
		t.Fatalf("replay %+v resumes at %d, want torn and the floor %d", rep, j2.Stats().NextSeq, floor)
	}
}
