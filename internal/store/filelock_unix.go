//go:build unix

package store

import (
	"os"
	"syscall"
)

// errLockHeld is what lockFile reports when another holder has the lock.
var errLockHeld error = syscall.EWOULDBLOCK

// lockFile takes a non-blocking exclusive flock. The lock is advisory —
// it binds cooperating crowdml processes, not arbitrary tools — and is
// attached to the open file description, so the kernel releases it the
// instant a crashed holder dies: stale locks cannot exist and the file
// is never unlinked (unlinking would reopen the classic race where two
// processes lock different inodes behind one path).
func lockFile(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}

// unlockFile drops the flock. Closing the file releases it too; the
// explicit unlock just makes the handoff immediate.
func unlockFile(f *os.File) {
	_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}
