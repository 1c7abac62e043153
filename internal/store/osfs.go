package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// osFS is the fileSystem on disk: the only file in the package that calls
// os file functions (the platform lock calls aside).
type osFS struct{}

func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Stat(path string) (fs.FileInfo, error)     { return os.Stat(path) }
func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error    { return os.Truncate(path, size) }

func (osFS) OpenAppend(path string) (file, error) {
	return asFile(os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644))
}

func (osFS) CreateTemp(path string) (file, error) {
	return asFile(os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp"))
}

// asFile keeps a failed open's nil *os.File out of the interface.
func asFile(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Open returns the open file: the store only ever appends to a file,
// replaces it by a rename, or truncates it before a journal appends to it,
// so its first size bytes stay as they were.
func (osFS) Open(path string) (fileImage, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

// SyncDir fsyncs a directory. Filesystems that refuse directory fsync
// (EINVAL) are tolerated — on those there is nothing stronger to offer;
// any other failure is reported so callers for whom the dirent's
// durability is load-bearing (Rotate under a fsyncing SyncPolicy) can
// treat it as fatal.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// Lock takes the lock on the file at path, creating it if needed; lockFile
// and unlockFile are the platform's.
func (osFS) Lock(path string) (io.Closer, error) {
	lock, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock file: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		if errors.Is(err, errLockHeld) {
			return nil, fmt.Errorf("%s: %w", path, ErrStoreLocked)
		}
		return nil, fmt.Errorf("store: lock %s: %w", path, err)
	}
	return dirLock{lock}, nil
}

// dirLock is a held lock; Close releases it.
type dirLock struct{ f *os.File }

func (l dirLock) Close() error {
	unlockFile(l.f)
	return l.f.Close()
}
