package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"titanre/internal/durable"
)

// sealThree builds a store directory of three sealed segments and
// returns the directory plus the per-segment event counts.
func sealThree(t *testing.T) (string, []int) {
	t.Helper()
	events := simEvents(t)[:600]
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	counts := []int{200, 200, 200}
	for i, n := range counts {
		if _, err := st.Seal(events[i*n : (i+1)*n]); err != nil {
			t.Fatalf("Seal %d: %v", i, err)
		}
	}
	return dir, counts
}

// TestOpenRemovesOrphans: temp files left by a crash between write and
// rename are deleted by both the strict and the recovering open, and never loaded.
func TestOpenRemovesOrphans(t *testing.T) {
	dir, _ := sealThree(t)
	orphans := []string{durable.TempPrefix + "seg-000003.seg-12345", durable.TempPrefix + FloorFile + "-99"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, rec, err := OpenDir(dir, OpenOptions{Recover: true})
	if err != nil {
		t.Fatalf("recovering open: %v", err)
	}
	if rec.OrphansRemoved != 2 {
		t.Fatalf("removed %d orphans, want 2", rec.OrphansRemoved)
	}
	if len(rec.Quarantined) != 0 {
		t.Fatalf("quarantined %v on a clean store", rec.Quarantined)
	}
	if st.SegmentCount() != 3 || st.EventCount() != 600 {
		t.Fatalf("loaded %d segments / %d events, want 3 / 600", st.SegmentCount(), st.EventCount())
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the open", name)
		}
	}
	// A second open finds nothing left to clean.
	if _, rec2, err := OpenDir(dir, OpenOptions{Recover: true}); err != nil || rec2.OrphansRemoved != 0 {
		t.Fatalf("second open removed %d orphans (%v), want 0", rec2.OrphansRemoved, err)
	}
}

// TestOpenRecoverQuarantine is the corrupt-segment table test: truncated
// and bit-flipped segment files are quarantined with exact accounting —
// never a panic, never a full abort — while the surviving segments load
// intact, and the strict Open still refuses the same directory.
func TestOpenRecoverQuarantine(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated-header", func(t *testing.T, path string) { truncateTo(t, path, 10) }},
		{"truncated-half", func(t *testing.T, path string) {
			data := readAll(t, path)
			truncateTo(t, path, int64(len(data)/2))
		}},
		{"truncated-tail", func(t *testing.T, path string) {
			data := readAll(t, path)
			truncateTo(t, path, int64(len(data)-7))
		}},
		{"bitflip-magic", func(t *testing.T, path string) { flipByte(t, path, 3) }},
		{"bitflip-column", func(t *testing.T, path string) {
			data := readAll(t, path)
			flipByte(t, path, int64(len(data)/2))
		}},
		{"bitflip-digest", func(t *testing.T, path string) {
			data := readAll(t, path)
			flipByte(t, path, int64(len(data)-1))
		}},
		{"emptied", func(t *testing.T, path string) { truncateTo(t, path, 0) }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir, counts := sealThree(t)
			victim := "seg-000001.seg"
			path := filepath.Join(dir, victim)
			origSize := int64(len(readAll(t, path)))
			tc.corrupt(t, path)
			corruptSize := int64(len(readAll(t, path)))

			// Strict open refuses the directory outright.
			if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("strict Open: got %v, want ErrCorrupt", err)
			}

			st, rec, err := OpenDir(dir, OpenOptions{Recover: true})
			if err != nil {
				t.Fatalf("recovering open: %v", err)
			}
			if len(rec.Quarantined) != 1 || rec.Quarantined[0] != victim {
				t.Fatalf("quarantined %v, want exactly [%s]", rec.Quarantined, victim)
			}
			if rec.QuarantinedBytes != corruptSize {
				t.Fatalf("quarantined %d bytes, want %d", rec.QuarantinedBytes, corruptSize)
			}
			if st.SegmentCount() != 2 || st.EventCount() != counts[0]+counts[2] {
				t.Fatalf("survivors: %d segments / %d events, want 2 / %d",
					st.SegmentCount(), st.EventCount(), counts[0]+counts[2])
			}
			// The evidence moved aside byte-for-byte; the store dir no
			// longer holds the corrupt file, so a strict Open now works.
			moved := filepath.Join(dir, QuarantineDir, victim)
			if got := readAll(t, moved); int64(len(got)) != corruptSize {
				t.Fatalf("quarantined file holds %d bytes, want %d", len(got), corruptSize)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file still in the store dir: %v", err)
			}
			st2, err := Open(dir)
			if err != nil {
				t.Fatalf("strict Open after quarantine: %v", err)
			}
			if st2.EventCount() != counts[0]+counts[2] {
				t.Fatalf("post-quarantine strict open: %d events", st2.EventCount())
			}
			_ = origSize
		})
	}
}

// TestOpenRecoverMultipleCorrupt: every corrupt file is quarantined in
// one pass, and sealing afterwards continues the numbering past the
// quarantined names so nothing is ever overwritten.
func TestOpenRecoverMultipleCorrupt(t *testing.T) {
	dir, counts := sealThree(t)
	flipByte(t, filepath.Join(dir, "seg-000000.seg"), 100)
	truncateTo(t, filepath.Join(dir, "seg-000002.seg"), 33)
	st, rec, err := OpenDir(dir, OpenOptions{Recover: true})
	if err != nil {
		t.Fatalf("recovering open: %v", err)
	}
	if len(rec.Quarantined) != 2 {
		t.Fatalf("quarantined %v, want 2 files", rec.Quarantined)
	}
	if st.EventCount() != counts[1] {
		t.Fatalf("survivor holds %d events, want %d", st.EventCount(), counts[1])
	}
	events := simEvents(t)[:50]
	if _, err := st.Seal(events); err != nil {
		t.Fatalf("Seal after recovery: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000003.seg")); err != nil {
		t.Fatalf("post-recovery seal did not continue numbering: %v", err)
	}
}

// TestWriteFileFailpoints: an error at each operation of the segment
// commit (durable.WriteFile) surfaces as a seal error and leaves no file
// behind — not the temp file, and not the segment a failing directory
// sync follows the rename of — and the retry succeeds: the compaction
// retry contract, which a segment left visible would break by sealing
// its events twice.
func TestWriteFileFailpoints(t *testing.T) {
	events := simEvents(t)[:100]
	for _, row := range []struct {
		name  string
		fault durable.Fault
	}{
		{"store.segment.create", durable.Fault{Op: durable.OpCreate}},
		{"store.segment.write", durable.Fault{Op: durable.OpWrite, Short: true}},
		{"store.segment.sync", durable.Fault{Op: durable.OpSync}},
		{"store.segment.rename", durable.Fault{Op: durable.OpRename}},
		{"store.dir.sync", durable.Fault{Op: durable.OpSyncDir}},
	} {
		t.Run(row.name, func(t *testing.T) {
			mem := durable.NewMem()
			opts := OpenOptions{FS: mem}
			st, _, err := OpenDir("/store", opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			row.fault.N, row.fault.Err = 1, syscall.EIO
			mem.Fail(row.fault)
			if _, err := st.Seal(events); !errors.Is(err, syscall.EIO) {
				t.Fatalf("seal with a failing %v: got %v, want EIO", row.fault.Op, err)
			}
			if paths := mem.Paths(); len(paths) != 0 {
				t.Fatalf("failed seal left %v", paths)
			}
			// The fault is spent: the retry succeeds.
			if _, err := st.Seal(events); err != nil {
				t.Fatalf("retry after one failing %v: %v", row.fault.Op, err)
			}
			reopened, _, err := OpenDir("/store", opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if reopened.EventCount() != len(events) {
				t.Fatalf("reopened store holds %d events, want %d", reopened.EventCount(), len(events))
			}
		})
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func truncateTo(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data := readAll(t, path)
	data[off] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = bytes.MinRead
}
