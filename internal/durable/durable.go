// Package durable is where titanre decides how a byte becomes durable.
//
// Every file a daemon keeps under its state directories — journal
// files, sealed segments, the SEALED floor, the restart checkpoint, the
// alert-feed snapshot and the flat dataset snapshot — is created, read,
// renamed and removed through one FS value. OS is the production file
// system; Mem is an in-memory one that knows, at every operation
// boundary, what a crash would leave: the kill image (everything
// written, as the page cache holds it) and the power-cut image (only
// what an fsync covered). Tests swap Mem in through serve.Config.FS,
// store.OpenOptions.FS and JournalConfig.FS; nil is OS everywhere.
//
// The rules the writers follow, and that Mem checks:
//
//   - A file's bytes survive a power cut only up to its last Sync.
//   - A directory entry (a create, a rename, a remove) survives only
//     once its directory was synced (SyncDir).
//   - A directory MkdirAll created is durable when MkdirAll returns.
//
// WriteFile is the one temp → fsync → rename → directory-fsync commit,
// and Sweep the one clean-up of the temp files a crash strands.
package durable

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// File is a file open for writing.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Name() string
}

// FS is the file system under every durable write and every read of
// durable state.
type FS interface {
	// Create creates or truncates name for writing.
	Create(name string) (File, error)
	// CreateTemp creates a new file in dir, its name pattern with the
	// last "*" replaced by a unique string (os.CreateTemp's rule).
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	// ReadDir lists dir's entries sorted by name.
	ReadDir(dir string) ([]fs.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// MkdirAll creates dir and any missing parents; they are durable
	// when it returns.
	MkdirAll(dir string) error
	// SyncDir makes dir's entries — creates, renames, removes — durable.
	SyncDir(dir string) error
	// Map returns name's bytes read-only, and the call that releases
	// them; the bytes must not be used after it. OS maps the file where
	// the platform can, and fails where it cannot.
	Map(name string) (data []byte, unmap func(), err error)
}

// Or returns fsys, or OS when it is nil: the zero value of every FS
// field is the real file system.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

// TempPrefix starts the name of every file WriteFile has not yet
// renamed into place. Nothing else in a state directory starts with it.
const TempPrefix = ".tmp-"

// WriteFile replaces dir/name with what write produces, so that a crash
// at any point leaves the old file or the new one, never a torn one: the
// bytes go to a temp file in dir, which is fsynced, renamed over name,
// and then dir itself is fsynced. A failure before the rename removes
// the temp file and leaves the old name in place; a crash there leaves
// the temp file, which Sweep removes.
func WriteFile(fsys FS, dir, name string, write func(io.Writer) error) error {
	f, err := fsys.CreateTemp(dir, TempPrefix+name+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		_ = fsys.Remove(tmp) // the error above is the one to report
		return err
	}
	return fsys.SyncDir(dir)
}

// WriteBytes is WriteFile of a byte slice.
func WriteBytes(fsys FS, dir, name string, data []byte) error {
	return WriteFile(fsys, dir, name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Sweep removes the temp files WriteFile calls cut short left in dir,
// returning how many it removed. A missing dir has none.
func Sweep(fsys FS, dir string) (int, error) {
	entries, err := fsys.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), TempPrefix) {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
			return n, err
		}
		n++
	}
	if n > 0 {
		return n, fsys.SyncDir(dir)
	}
	return 0, nil
}

// OS is the host file system.
var OS FS = osFS{}

type osFS struct{}

// file returns f as a File, and a nil File — not a nil *os.File inside
// one — on error.
func file(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Create(name string) (File, error)             { return file(os.Create(name)) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return file(os.CreateTemp(dir, pattern)) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

func (fsys osFS) MkdirAll(dir string) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	// A new directory's entry lives in its parent: sync that once the
	// directory exists.
	parent := filepath.Dir(filepath.Clean(dir))
	if err := fsys.MkdirAll(parent); err != nil {
		return err
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !os.IsExist(err) {
		return err
	}
	return syncDir(parent)
}

func (osFS) SyncDir(dir string) error { return syncDir(dir) }

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (osFS) Map(name string) ([]byte, func(), error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	return mmap(f, int(info.Size())) // an empty file does not map
}
