package durable

import (
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Mem is an in-memory FS that keeps, beside what every file holds now,
// what a crash would leave of it. Each file has the bytes written to it
// (the page cache) and the bytes its last Sync covered; each directory
// has its entries now and as of its last SyncDir. Two images follow:
//
//   - Kill: every file as written — what a SIGKILL leaves, the kernel
//     having outlived the process.
//   - Power cut: only the entries a SyncDir made durable, each holding
//     what its last Sync covered — what a machine that lost power
//     leaves. The torn variant (Cut.Torn) also keeps the first half of
//     the last write no Sync covered, when its file is one of those.
//
// Record captures the images at every boundary — before each operation
// that changes anything, and at the end — in one pass; Fail makes the
// next operations of a kind return an error, a Write optionally after
// writing half its bytes. Directories MkdirAll makes are durable at once
// (the FS contract). A Mem is safe for concurrent use.
type Mem struct {
	mu             sync.Mutex
	dirs           map[string]bool
	files, durable map[string]*inode // the namespace now, and as of each directory's last SyncDir
	last           *inode            // the file of the last write no Sync has covered
	torn           []byte            // its bytes up to half that write
	temps          int
	faults         []Fault
	recording      bool
	cuts           []Cut
}

// inode is one file's contents. data only grows by append or is cut with
// its capacity clipped, so a clipped slice of it never changes: images
// share bytes, not copies.
type inode struct{ data, synced []byte }

// Op is a kind of operation that changes a file system.
type Op uint8

const (
	OpNone   Op = iota // no operation: a Cut of the state at the end
	OpCreate           // Create, CreateTemp
	OpWrite
	OpSync
	OpRename
	OpRemove
	OpTruncate
	OpMkdir
	OpSyncDir
)

func (op Op) String() string {
	return [...]string{"end", "create", "write", "sync", "rename", "remove", "truncate", "mkdir", "syncdir"}[op]
}

// Fault fails the next N operations of kind Op whose path contains Path
// ("" matches any) with Err. A Short failing Write writes the first half
// of its bytes before it fails, as a disk that fills mid-write does.
type Fault struct {
	Op    Op
	Path  string
	N     int
	Err   error
	Short bool
}

// Cut is the file system at one boundary: just before an operation Op
// on Path (rename paths read "old -> new"), or at the end when Op is
// OpNone. Torn is the power-cut image with the first half of the last
// write no Sync covered, or nil when that write continues no file Power
// holds.
type Cut struct {
	Op                Op
	Path              string
	Kill, Power, Torn *Mem
}

func (c Cut) String() string { return c.Op.String() + " " + c.Path }

// NewMem returns an empty Mem: only the root directory exists.
func NewMem() *Mem {
	return &Mem{dirs: map[string]bool{"/": true}, files: map[string]*inode{}, durable: map[string]*inode{}}
}

// Fail arms f.
func (m *Mem) Fail(f Fault) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = append(m.faults, f)
}

// Record starts capturing a Cut at every boundary, dropping any it held,
// or stops.
func (m *Mem) Record(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recording, m.cuts = on, nil
}

// Cuts returns the cuts recorded so far and, last, the one of now (the
// only one when not recording).
func (m *Mem) Cuts() []Cut {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append(slices.Clip(m.cuts), m.now(OpNone, ""))
}

func (m *Mem) now(op Op, path string) Cut {
	c := Cut{Op: op, Path: path, Kill: m.image(m.files, false), Power: m.image(m.durable, true)}
	for p, ino := range m.durable {
		if ino == m.last {
			if c.Torn == nil {
				c.Torn = m.image(m.durable, true)
			}
			c.Torn.put(p, m.torn)
		}
	}
	return c
}

// image is a Mem whose every byte is durable, holding src's files: as
// written, or as synced.
func (m *Mem) image(src map[string]*inode, synced bool) *Mem {
	img := NewMem()
	img.temps = m.temps
	for d := range m.dirs {
		img.dirs[d] = true
	}
	for p, ino := range src {
		if synced {
			img.put(p, ino.synced)
		} else {
			img.put(p, ino.data)
		}
	}
	return img
}

func (m *Mem) put(path string, data []byte) {
	f := &inode{data: slices.Clip(data)}
	f.synced = f.data
	m.files[path], m.durable[path] = f, f
}

// Paths lists every file m holds, sorted.
func (m *Mem) Paths() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths := make([]string, 0, len(m.files))
	for p := range m.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// do runs one operation that changes m, under the lock: the boundary
// before it is recorded, an armed fault fails it (a short failing Write
// still runs, told so), and fn does it.
func (m *Mem) do(op Op, path string, fn func(short bool) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recording {
		m.cuts = append(m.cuts, m.now(op, path))
	}
	for i := range m.faults {
		if f := &m.faults[i]; f.Op == op && f.N > 0 && strings.Contains(path, f.Path) {
			f.N--
			if f.Short && op == OpWrite {
				_ = fn(true)
			}
			return &fs.PathError{Op: op.String(), Path: path, Err: f.Err}
		}
	}
	return fn(false)
}

func notExist(op, path string) error { return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist} }

// file is name's inode; m.mu is held.
func (m *Mem) file(name string) (*inode, error) {
	if ino := m.files[filepath.Clean(name)]; ino != nil {
		return ino, nil
	}
	return nil, notExist("open", name)
}

func (m *Mem) truncate(ino *inode, size int) {
	keep := min(size, len(ino.data))
	ino.data = append(ino.data[:keep:keep], make([]byte, size-keep)...)
	if m.last == ino {
		m.last = nil
	}
}

func (m *Mem) Create(name string) (File, error) { return m.create(filepath.Clean(name)) }

func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	m.temps++
	n := strconv.Itoa(m.temps)
	m.mu.Unlock()
	return m.create(filepath.Join(dir, strings.Replace(pattern, "*", n, 1)))
}

func (m *Mem) create(name string) (File, error) {
	f := &memFile{m: m, name: name}
	err := m.do(OpCreate, name, func(bool) error {
		if !m.dirs[filepath.Dir(name)] || m.dirs[name] {
			return notExist("open", name)
		}
		if f.ino = m.files[name]; f.ino == nil {
			f.ino = &inode{}
			m.files[name] = f.ino
		}
		m.truncate(f.ino, 0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, err := m.file(name)
	if err != nil {
		return nil, err
	}
	return slices.Clone(ino.data), nil
}

// Map hands out the bytes themselves: nothing writes them in place.
func (m *Mem) Map(name string) ([]byte, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, err := m.file(name)
	if err != nil {
		return nil, nil, err
	}
	return slices.Clip(ino.data), func() {}, nil
}

func (m *Mem) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name = filepath.Clean(name); !m.dirs[name] {
		return nil, notExist("open", name)
	}
	var out []fs.DirEntry
	for d := range m.dirs {
		if d != name && filepath.Dir(d) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(d), dir: true}))
		}
	}
	for p, ino := range m.files {
		if filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(ino.data))}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *Mem) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	return m.do(OpRename, oldpath+" -> "+newpath, func(bool) error {
		ino, err := m.file(oldpath)
		if err == nil && !m.dirs[filepath.Dir(newpath)] {
			err = notExist("rename", newpath)
		}
		if err != nil {
			return err
		}
		delete(m.files, oldpath)
		m.files[newpath] = ino
		return nil
	})
}

func (m *Mem) Remove(name string) error {
	name = filepath.Clean(name)
	return m.do(OpRemove, name, func(bool) error {
		_, err := m.file(name)
		delete(m.files, name)
		return err
	})
}

func (m *Mem) Truncate(name string, size int64) error {
	return m.do(OpTruncate, filepath.Clean(name), func(bool) error {
		ino, err := m.file(name)
		if err == nil {
			m.truncate(ino, int(size))
		}
		return err
	})
}

func (m *Mem) MkdirAll(dir string) error {
	dir = filepath.Clean(dir)
	return m.do(OpMkdir, dir, func(bool) error {
		for ; !m.dirs[dir]; dir = filepath.Dir(dir) {
			m.dirs[dir] = true
		}
		return nil
	})
}

func (m *Mem) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	return m.do(OpSyncDir, dir, func(bool) error {
		if !m.dirs[dir] {
			return notExist("sync", dir)
		}
		for p := range m.durable {
			if filepath.Dir(p) == dir {
				delete(m.durable, p)
			}
		}
		for p, ino := range m.files {
			if filepath.Dir(p) == dir {
				m.durable[p] = ino
			}
		}
		return nil
	})
}

// memFile is a Mem file open for writing.
type memFile struct {
	m    *Mem
	name string
	ino  *inode
}

func (f *memFile) Name() string { return f.name }
func (f *memFile) Close() error { return nil }

func (f *memFile) Write(p []byte) (n int, err error) {
	err = f.m.do(OpWrite, f.name, func(short bool) error {
		if n = len(p); short {
			n /= 2
		}
		ino := f.ino
		ino.data = append(ino.data, p[:n]...)
		end := len(ino.data) - n + n/2
		f.m.last, f.m.torn = ino, ino.data[:end:end]
		return nil
	})
	return n, err
}

func (f *memFile) Sync() error {
	return f.m.do(OpSync, f.name, func(bool) error {
		f.ino.synced = slices.Clip(f.ino.data)
		if f.m.last == f.ino {
			f.m.last = nil
		}
		return nil
	})
}

// memInfo is a Mem file's or directory's fs.FileInfo.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
