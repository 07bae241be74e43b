package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"titanre/internal/failpoint"
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
	for _, name := range []string{".seg-12345", ".seg-99"} {
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
	for _, name := range []string{".seg-12345", ".seg-99"} {
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

// TestWriteFileFailpoints: an injected error at each commit-path site
// surfaces as a seal error, leaves no visible segment behind, and a
// transient budget clears on retry — the compaction retry contract.
func TestWriteFileFailpoints(t *testing.T) {
	events := simEvents(t)[:100]
	for _, site := range []string{
		"store.segment.write", "store.segment.sync", "store.segment.rename", "store.dir.sync",
	} {
		t.Run(site, func(t *testing.T) {
			t.Cleanup(failpoint.DisableAll)
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if err := failpoint.Enable(site, "error:1"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Seal(events); !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("seal with %s armed: got %v, want ErrInjected", site, err)
			}
			// dir.sync fails after the rename published the file, so the
			// segment is visible (and valid); every earlier site must
			// leave the directory clean of visible segments.
			if site != "store.dir.sync" {
				if reopened, err := Open(dir); err != nil || reopened.SegmentCount() != 0 {
					t.Fatalf("failed seal left %d segments (%v)", reopened.SegmentCount(), err)
				}
			}
			// The budget is spent: the retry succeeds.
			if _, err := st.Seal(events); err != nil {
				t.Fatalf("retry after transient %s fault: %v", site, err)
			}
			reopened, _, err := OpenDir(dir, OpenOptions{Recover: true})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if reopened.EventCount() != 100 && site != "store.dir.sync" {
				t.Fatalf("reopened store holds %d events, want 100", reopened.EventCount())
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
