//go:build windows

package store

import (
	"os"
	"syscall"
	"unsafe"
)

// Windows enforces the store-directory lock with LockFileEx on the LOCK
// file — the same advisory-between-cooperating-processes semantics the
// unix flock gives: the lock is attached to the open handle, so the
// kernel releases it the instant a crashed holder's process dies, stale
// locks cannot exist, and the file is never unlinked (deleting a lock
// file reopens the classic race where two processes lock different
// objects behind one path; on Windows the open handle would block the
// delete anyway).

var (
	// The stdlib syscall package has no NewLazySystemDLL (that lives in
	// x/sys, and this repo is stdlib-only), but kernel32 is a KnownDLL:
	// Windows resolves it from System32 regardless of the search path,
	// and it is already mapped into every process before main — so the
	// planted-DLL concern NewLazySystemDLL addresses does not apply.
	kernel32         = syscall.NewLazyDLL("kernel32.dll")
	procLockFileEx   = kernel32.NewProc("LockFileEx")
	procUnlockFileEx = kernel32.NewProc("UnlockFileEx")
)

const (
	lockfileFailImmediately = 0x00000001 // LOCKFILE_FAIL_IMMEDIATELY
	lockfileExclusiveLock   = 0x00000002 // LOCKFILE_EXCLUSIVE_LOCK

	// errLockHeld is what lockFile reports when another holder has the lock.
	errLockHeld syscall.Errno = 33 // ERROR_LOCK_VIOLATION
)

// lockRange covers the whole (empty) lock file: LockFileEx locks byte
// ranges, and locking one byte past offset 0 is the idiomatic
// whole-file advisory lock.
func lockRange(f *os.File, flags uintptr) error {
	var ol syscall.Overlapped
	r, _, errno := procLockFileEx.Call(f.Fd(), flags, 0, 1, 0, uintptr(unsafe.Pointer(&ol)))
	if r == 0 {
		return errno
	}
	return nil
}

// lockFile takes a non-blocking exclusive LockFileEx lock.
func lockFile(f *os.File) error {
	return lockRange(f, lockfileExclusiveLock|lockfileFailImmediately)
}

// unlockFile drops the lock. Closing the handle releases it with the
// process's reference; the explicit unlock just makes the handoff
// immediate.
func unlockFile(f *os.File) {
	var ol syscall.Overlapped
	_, _, _ = procUnlockFileEx.Call(f.Fd(), 0, 1, 0, uintptr(unsafe.Pointer(&ol)))
}
