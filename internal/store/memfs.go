package store

import (
	"bytes"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// NewMemStore returns an empty store in memory, for tests, benchmarks and
// embedding: a FileStore over a file system of its own that keeps files
// as byte slices. It runs the code a store on disk runs, except that it
// takes no lock, so a test simulates a crash by dropping a hub and
// reopening the same store.
func NewMemStore() *FileStore { return &FileStore{fsys: newMemFS(), dir: memDir} }

// NewMemRoot returns an empty root in memory: a FileRoot over a file
// system of its own. Opening a task ID twice opens the same directory, so
// a hub "restarted" against the same root sees the previous one's state.
func NewMemRoot() *FileRoot { return &FileRoot{fsys: newMemFS(), dir: memDir} }

// memFS is the fileSystem in memory. It keeps three properties:
//   - An open image never changes. Writes only append, and Truncate cuts
//     the slice's capacity too, so the next append copies instead of
//     overwriting bytes an image can still read.
//   - Lock is a no-op: reopening a store after a simulated crash is what a
//     store in memory is for.
//   - A checkpoint costs no garbage. A Rename over an existing file keeps
//     the displaced file for the next CreateTemp, unless a handle or an
//     image still holds it.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile // by clean path, directories included
	spare *memFile            // displaced by a Rename, for the next CreateTemp
	temps int                 // CreateTemp's name counter
}

type memFile struct {
	data []byte
	open int // handles and images not yet closed
	dir  bool
}

// memDir is where NewMemStore and NewMemRoot keep their files: a clean
// relative name, so joining a file name to it costs one allocation.
const memDir = "mem"

func newMemFS() *memFS {
	return &memFS{files: map[string]*memFile{".": {dir: true}, memDir: {dir: true}}}
}

func pathErr(op, path string, err error) error { return &fs.PathError{Op: op, Path: path, Err: err} }

// file returns the regular file at path, or nil.
func (m *memFS) file(path string) *memFile {
	if f := m.files[filepath.Clean(path)]; f != nil && !f.dir {
		return f
	}
	return nil
}

// isDir reports whether path is a directory.
func (m *memFS) isDir(path string) bool {
	f := m.files[filepath.Clean(path)]
	return f != nil && f.dir
}

func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := filepath.Clean(dir)
	for ; m.files[d] == nil; d = filepath.Dir(d) {
		m.files[d] = &memFile{dir: true}
	}
	if !m.files[d].dir {
		return pathErr("mkdir", d, syscall.ENOTDIR)
	}
	return nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dir = filepath.Clean(dir); !m.isDir(dir) {
		return nil, pathErr("readdir", dir, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for p, f := range m.files {
		if p != dir && filepath.Dir(p) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{filepath.Base(p), int64(len(f.data)), f.dir}))
		}
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (m *memFS) Stat(path string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[filepath.Clean(path)]
	if f == nil {
		return nil, pathErr("stat", path, fs.ErrNotExist)
	}
	return memInfo{filepath.Base(path), int64(len(f.data)), f.dir}, nil
}

func (m *memFS) Rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.file(from)
	if f == nil {
		return pathErr("rename", from, fs.ErrNotExist)
	}
	if to = filepath.Clean(to); !m.isDir(filepath.Dir(to)) || m.isDir(to) {
		return pathErr("rename", to, syscall.EINVAL)
	}
	if old := m.files[to]; old != nil && old != f && old.open == 0 {
		m.spare = old
	}
	delete(m.files, filepath.Clean(from))
	m.files[to] = f
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.file(path) == nil {
		return pathErr("remove", path, fs.ErrNotExist)
	}
	delete(m.files, filepath.Clean(path))
	return nil
}

func (m *memFS) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.file(path)
	if f == nil || size > int64(len(f.data)) {
		return pathErr("truncate", path, syscall.EINVAL)
	}
	f.data = f.data[:size:size]
	return nil
}

func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) Lock(string) (io.Closer, error) { return io.NopCloser(nil), nil }

func (m *memFS) OpenAppend(path string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	f := m.files[path]
	switch {
	case f == nil && m.isDir(filepath.Dir(path)):
		f = &memFile{}
		m.files[path] = f
	case f == nil || f.dir:
		return nil, pathErr("open", path, fs.ErrNotExist)
	}
	f.open++
	return &memOpen{m: m, f: f, name: path}, nil
}

func (m *memFS) CreateTemp(path string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.isDir(filepath.Dir(path)) {
		return nil, pathErr("createtemp", path, fs.ErrNotExist)
	}
	var name string
	for name == "" || m.files[name] != nil {
		m.temps++
		name = filepath.Clean(path + "." + strconv.Itoa(m.temps) + ".tmp")
	}
	f := m.spare
	if m.spare = nil; f == nil {
		f = &memFile{}
	}
	f.data, f.open = f.data[:0], 1
	m.files[name] = f
	return &memOpen{m: m, f: f, name: name}, nil
}

func (m *memFS) Open(path string) (fileImage, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.file(path)
	if f == nil {
		return nil, 0, pathErr("open", path, fs.ErrNotExist)
	}
	f.open++
	return &memOpen{Reader: bytes.NewReader(f.data), m: m, f: f}, int64(len(f.data)), nil
}

// memOpen is an open handle (OpenAppend, CreateTemp) or image (Open).
type memOpen struct {
	*bytes.Reader // an image's bytes, as they were when it was opened
	m             *memFS
	f             *memFile // nil once closed
	name          string
}

func (o *memOpen) Write(p []byte) (int, error) {
	o.m.mu.Lock()
	defer o.m.mu.Unlock()
	if o.f == nil {
		return 0, fs.ErrClosed
	}
	o.f.data = append(o.f.data, p...)
	return len(p), nil
}

func (o *memOpen) Close() error {
	o.m.mu.Lock()
	defer o.m.mu.Unlock()
	if o.f == nil {
		return fs.ErrClosed
	}
	o.f.open--
	o.f = nil
	return nil
}

func (o *memOpen) Sync() error  { return nil }
func (o *memOpen) Name() string { return o.name }

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
