//go:build !unix && !windows

package store

import (
	"errors"
	"os"
)

var errLockHeld = errors.New("store: lock held")

// lockFile on platforms with neither flock(2) nor LockFileEx (see
// filelock_unix.go and filelock_windows.go) does nothing: the
// single-live-journal exclusion documented on FileStore is NOT enforced
// here, exactly the pre-lock behavior. Deployments on such platforms must
// not point two servers at one store directory.
func lockFile(*os.File) error { return nil }

func unlockFile(*os.File) {}
