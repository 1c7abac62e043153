package store

// These hand the file-system seam to the tests in package store_test
// (crash_test.go), which drive a hub and so cannot live in this package.

type (
	FS   = fileSystem
	File = file
)

func NewMemFS() FS { return newMemFS() }

func NewFileStoreOn(fsys FS, dir string) (*FileStore, error) { return newFileStore(fsys, dir) }
