//go:build unix

package store

import (
	"errors"
	"testing"
)

// TestOpenJournalLocksStoreDir: the advisory flock makes a second live
// journal — the deployment mistake that could torn-tail-repair a live
// file — fail fast with ErrStoreLocked, and releases on Close. The
// exclusion is flock-based, so this test (like the enforcement itself;
// see filelock_other.go) is unix-only.
func TestOpenJournalLocksStoreDir(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.OpenJournal(ctx); !errors.Is(err, ErrStoreLocked) {
		t.Errorf("second open error = %v, want ErrStoreLocked", err)
	}
	// A second FileStore handle on the same directory hits the same lock.
	fs2, err := NewFileStore(fs.dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.OpenJournal(ctx); !errors.Is(err, ErrStoreLocked) {
		t.Errorf("second-handle open error = %v, want ErrStoreLocked", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
}
