package store

import (
	"io"
	"io/fs"
)

// fileSystem is every file operation this package makes: FileStore and
// FileRoot hold one, and nothing else in the package touches a file. osFS
// is the disk; memFS is memory (NewMemStore, NewMemRoot), and a test can
// put a recording or failing one in between. Paths are the ones the store
// builds with filepath.Join.
type fileSystem interface {
	MkdirAll(dir string) error
	// ReadDir lists dir's entries sorted by name.
	ReadDir(dir string) ([]fs.DirEntry, error)
	Stat(path string) (fs.FileInfo, error)
	Rename(from, to string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	// SyncDir makes the creates, renames and removes inside dir durable.
	SyncDir(dir string) error
	// Lock takes the advisory lock on the file at path (ErrStoreLocked
	// while another holder has it); Close releases it.
	Lock(path string) (io.Closer, error)
	// OpenAppend opens a file for appending, creating it if it is missing.
	OpenAppend(path string) (file, error)
	// CreateTemp creates a new file beside path, named path.*.tmp with a
	// "*" no other file there has.
	CreateTemp(path string) (file, error)
	// Open opens a file for reading as it is now: the first size bytes of
	// the image never change afterwards, whatever is later written,
	// truncated, renamed or removed. A missing file reports fs.ErrNotExist.
	Open(path string) (image fileImage, size int64, err error)
}

// file is an open file a fileSystem writes through.
type file interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// fileImage is an open file's bytes (see fileSystem.Open).
type fileImage interface {
	io.ReaderAt
	io.Closer
}
