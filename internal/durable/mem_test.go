package durable

import (
	"errors"
	"maps"
	"os"
	"slices"
	"syscall"
	"testing"
)

func write(t *testing.T, f File, s string) {
	t.Helper()
	if _, err := f.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
}

// memWith is a Mem holding the directory dir.
func memWith(t *testing.T, dir string) *Mem {
	t.Helper()
	m := NewMem()
	if err := m.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	return m
}

// now is the cut of m as it stands.
func now(m *Mem) Cut {
	cuts := m.Cuts()
	return cuts[len(cuts)-1]
}

func contents(t *testing.T, m *Mem) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, p := range m.Paths() {
		data, err := m.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = string(data)
	}
	return out
}

// TestMemImages: a kill keeps every byte written; a power cut keeps a
// file's bytes up to its last Sync and a directory's entries as of its
// last SyncDir; the torn cut keeps half the last unsynced write on top.
func TestMemImages(t *testing.T) {
	m := memWith(t, "/d")
	m.Record(true)
	f, err := m.Create("/d/log")
	if err != nil {
		t.Fatal(err)
	}
	write(t, f, "synced|")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	write(t, f, "pending|")
	write(t, f, "torn-tail")
	g, err := m.Create("/d/new") // never made durable by a SyncDir
	if err != nil {
		t.Fatal(err)
	}
	write(t, g, "x")
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		img  *Mem
		want map[string]string
	}{
		{"kill", now(m).Kill, map[string]string{"/d/log": "synced|pending|torn-tail", "/d/new": "x"}},
		{"power cut", now(m).Power, map[string]string{"/d/log": "synced|"}},
	} {
		if got := contents(t, c.img); !maps.Equal(got, c.want) {
			t.Errorf("%s image %q, want %q", c.name, got, c.want)
		}
	}
	cuts := m.Cuts()
	// Before g's Sync the last unsynced write was g's; before g's create,
	// the torn-tail write to /d/log, half of which the torn image keeps.
	i := slices.IndexFunc(cuts, func(c Cut) bool { return c.Op == OpCreate && c.Path == "/d/new" })
	if i < 0 {
		t.Fatal("no cut before the second create")
	}
	if got := contents(t, cuts[i].Torn); got["/d/log"] != "synced|pending|torn" {
		t.Errorf("torn image %q, want the synced bytes, the pending write and half the last", got)
	}
	if last := cuts[len(cuts)-1]; last.Op != OpNone || last.Torn != nil {
		t.Errorf("the last cut is %v with torn image %v; want the end, g's write synced", last, last.Torn)
	}

	// Removing and renaming are durable only at the next SyncDir.
	if err := m.Rename("/d/log", "/d/moved"); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, now(m).Power); got["/d/log"] != "synced|" || got["/d/moved"] != "" {
		t.Errorf("power cut after an unsynced rename %q, want the old name", got)
	}
	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	// Now both names are durable; the moved file still only to its Sync.
	if got, want := contents(t, now(m).Power), map[string]string{"/d/moved": "synced|", "/d/new": "x"}; !maps.Equal(got, want) {
		t.Errorf("power cut after the rename's SyncDir %q, want %q", got, want)
	}
}

// TestWriteFileFaults: WriteFile leaves the old file and no temp file
// when any step before the rename fails, a short write included, and
// Sweep removes the temp file a crash before the rename strands.
func TestWriteFileFaults(t *testing.T) {
	for _, op := range []Op{OpCreate, OpWrite, OpSync, OpRename} {
		m := memWith(t, "/d")
		if err := WriteBytes(m, "/d", "f", []byte("old")); err != nil {
			t.Fatal(err)
		}
		m.Fail(Fault{Op: op, N: 1, Err: syscall.ENOSPC, Short: true})
		if err := WriteBytes(m, "/d", "f", []byte("new contents")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("%v fails: WriteFile returned %v", op, err)
		}
		if got := contents(t, m); len(got) != 1 || got["/d/f"] != "old" {
			t.Errorf("%v fails: left %q, want the old file alone", op, got)
		}
	}

	m := memWith(t, "/d")
	m.Record(true)
	if err := WriteBytes(m, "/d", "f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	cuts := m.Cuts()
	i := slices.IndexFunc(cuts, func(c Cut) bool { return c.Op == OpRename })
	stranded := cuts[i].Kill
	if n, err := Sweep(stranded, "/d"); n != 1 || err != nil {
		t.Fatalf("Sweep removed %d (%v), want the one temp file", n, err)
	}
	if got := stranded.Paths(); len(got) != 0 {
		t.Errorf("after the sweep %v remain", got)
	}
}

// TestMemFileErrors: Mem answers missing files and directories the way
// the os package does, so callers' os.IsNotExist checks hold.
func TestMemFileErrors(t *testing.T) {
	m := memWith(t, "/d")
	if _, err := m.ReadFile("/d/none"); !os.IsNotExist(err) {
		t.Errorf("ReadFile of a missing file: %v", err)
	}
	if _, err := m.Create("/missing/f"); !os.IsNotExist(err) {
		t.Errorf("Create in a missing directory: %v", err)
	}
	if _, err := m.ReadDir("/missing"); !os.IsNotExist(err) {
		t.Errorf("ReadDir of a missing directory: %v", err)
	}
	if n, err := Sweep(m, "/missing"); n != 0 || err != nil {
		t.Errorf("Sweep of a missing directory: %d, %v", n, err)
	}
}
