package store_test

import (
	"context"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/invariants"
	"github.com/crowdml/crowdml/internal/store"
)

// TestLoadYieldsRows: on disk and in memory, a loaded checkpoint holds its
// device table as rows in strictly increasing ID order and no map; the
// rows read back through SortedDevices, and a fresh server that imports
// them equals the one that saved them, bit for bit.
func TestLoadYieldsRows(t *testing.T) {
	ctx := context.Background()
	src, err := core.NewServer(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	tokens := map[string]string{}
	for i, id := range []string{"m", "b", "z", "a", "b", "q"} {
		if err := checkin(ctx, src, tokens, id, i+1); err != nil {
			t.Fatal(err)
		}
	}
	want := src.ExportStateInto(nil)
	fs, err := store.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]store.Store{"FileStore": fs, "MemStore": store.NewMemStore()} {
		t.Run(name, func(t *testing.T) {
			if err := st.Save(ctx, want, time.UnixMilli(1790000000000)); err != nil {
				t.Fatal(err)
			}
			cp, err := st.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got := cp.State
			if got.Devices != nil {
				t.Fatalf("Load keyed %d devices by ID, want rows only", len(got.Devices))
			}
			if len(got.DeviceRows) != len(tokens) {
				t.Fatalf("Load yields %d device rows, want %d", len(got.DeviceRows), len(tokens))
			}
			for i := 1; i < len(got.DeviceRows); i++ {
				if got.DeviceRows[i-1].ID >= got.DeviceRows[i].ID {
					t.Fatalf("rows %q, %q: not strictly increasing by ID", got.DeviceRows[i-1].ID, got.DeviceRows[i].ID)
				}
			}
			if rows, err := got.SortedDevices(); err != nil || len(rows) != len(got.DeviceRows) {
				t.Fatalf("SortedDevices = %d rows, %v", len(rows), err)
			}
			dst, err := core.NewServer(crashConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.ImportState(got); err != nil {
				t.Fatal(err)
			}
			if err := invariants.Same(dst.ExportStateInto(nil), want); err != nil {
				t.Error(err)
			}
		})
	}
}
