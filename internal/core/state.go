package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/crowdml/crowdml/internal/optimizer"
)

// ServerState is a serializable snapshot of everything Algorithm 2
// accumulates: the parameter vector, the iteration counter, and the
// per-device progress counters. The paper's prototype persisted this state
// in MySQL (Section V-A); package store provides the file-backed
// equivalent so a restarted server resumes the task instead of discarding
// the crowd's contributions.
//
// Device tokens are intentionally NOT part of the state: credentials are
// provisioning data, not learning state, and persisting them would widen
// the blast radius of a leaked checkpoint.
type ServerState struct {
	// ModelName, Classes and Dim identify the task shape for sanity
	// checking on restore.
	ModelName string `json:"modelName"`
	Classes   int    `json:"classes"`
	Dim       int    `json:"dim"`
	// Params is the flattened C×D parameter matrix.
	Params []float64 `json:"params"`
	// Iteration is the SGD iteration counter t.
	Iteration int `json:"iteration"`
	// Stopped records the learning stop: the stopping criteria were met
	// or Stop was called. A Halt is never recorded.
	Stopped bool `json:"stopped"`
	// TotalSamples, TotalErrors and TotalLabelCounts are the crowd-wide
	// counters behind the Eq. (14) estimates.
	TotalSamples     int   `json:"totalSamples"`
	TotalErrors      int   `json:"totalErrors"`
	TotalLabelCounts []int `json:"totalLabelCounts"`
	// UpdaterName identifies the updater that produced UpdaterState
	// (optimizer.Updater.Name()). ImportState only hands the state
	// vector back when the configured updater's name matches; otherwise
	// the state is reset — restoring an AdaGrad checkpoint into a task
	// reconfigured for Momentum must not silently reinterpret
	// accumulators as velocity.
	UpdaterName string `json:"updaterName,omitempty"`
	// UpdaterState is the internal state of an updater implementing
	// optimizer.StateExporter's AppendState and ImportState (AdaGrad's
	// accumulators, Momentum's velocity); empty for stateless ones like
	// the paper's SGD schedules. In the checkpoint it makes recovery
	// bit-exact for stateful updaters too: ImportState hands it back and
	// journal-tail replay advances it deterministically.
	UpdaterState []float64 `json:"updaterState,omitempty"`
	// Devices holds the per-device counters keyed by device ID: the form
	// ExportState returns, kept only because the end-to-end benchmark
	// (crowdbench) reads it; ROADMAP 13a removes it.
	Devices map[string]DeviceStats `json:"devices"`
	// DeviceRows holds the same counters as rows in strictly increasing
	// ID order: what ExportStateInto returns and a checkpoint stores and
	// decodes to, in under half the memory of the map. A state carries
	// its devices in one of the two; SortedDevices reads either.
	DeviceRows []DeviceRow `json:"deviceRows,omitempty"`
}

// DeviceRow is one device's counters under its ID: a row of
// ServerState.DeviceRows.
type DeviceRow struct {
	ID string `json:"id"`
	DeviceStats
}

func compareRows(a, b DeviceRow) int { return strings.Compare(a.ID, b.ID) }

// SortedDevices returns st's device table as rows in strictly increasing
// ID order: DeviceRows itself, or Devices copied into fresh rows and
// sorted. It fails when st sets both, or when DeviceRows is out of order
// or names a device twice — the property a map gives for free.
func (st *ServerState) SortedDevices() ([]DeviceRow, error) {
	if len(st.Devices) > 0 {
		if len(st.DeviceRows) > 0 {
			return nil, fmt.Errorf("core: state carries both Devices and DeviceRows")
		}
		rows := make([]DeviceRow, 0, len(st.Devices))
		for id, d := range st.Devices {
			rows = append(rows, DeviceRow{ID: id, DeviceStats: d})
		}
		slices.SortFunc(rows, compareRows)
		return rows, nil
	}
	for i := 1; i < len(st.DeviceRows); i++ {
		if st.DeviceRows[i].ID <= st.DeviceRows[i-1].ID {
			return nil, fmt.Errorf("core: device rows not strictly increasing by ID at %q after %q",
				st.DeviceRows[i].ID, st.DeviceRows[i-1].ID)
		}
	}
	return st.DeviceRows, nil
}

// StateBuffer is the memory one ExportStateInto call leaves behind for the
// next: the parameter, totals and updater vectors, the device rows and
// the slab every device's label counts are carved from. The zero value is
// ready to use. A buffer belongs to one caller at a time, and each export
// into it overwrites the last — the *ServerState a call returns is valid
// until the next call with the same buffer.
type StateBuffer struct {
	st   ServerState
	slab []int
}

// ExportState snapshots the server's learning state into memory of its
// own, keying the device table by ID (Devices) for crowdbench alone.
func (s *Server) ExportState() *ServerState {
	st := s.ExportStateInto(nil)
	st.Devices = make(map[string]DeviceStats, len(st.DeviceRows))
	for _, r := range st.DeviceRows {
		st.Devices[r.ID] = r.DeviceStats
	}
	st.DeviceRows = nil
	return st
}

// ExportStateInto snapshots the server's learning state with the device
// table as sorted rows (DeviceRows), reusing buf's memory (nil means a
// fresh buffer: the result is then the caller's to keep). It takes the
// apply lock, so the exported parameters, iteration counter, crowd totals
// and per-device counters all come from the same quiescent point between
// batches — and with a warm buffer the lock is held for a copy into
// memory that already exists. The rows are sorted after the lock is
// released.
func (s *Server) ExportStateInto(buf *StateBuffer) *ServerState {
	if buf == nil {
		buf = new(StateBuffer)
	}
	st := &buf.st
	s.wMu.Lock()
	classes, dim := s.cfg.Model.Shape()
	st.TotalLabelCounts = slices.Grow(st.TotalLabelCounts[:0], classes)
	for k := range s.totalNky {
		st.TotalLabelCounts = append(st.TotalLabelCounts, int(s.totalNky[k].Load()))
	}
	st.ModelName = s.cfg.Model.Name()
	st.Classes, st.Dim = classes, dim
	st.Params = append(st.Params[:0], s.w.Data()...)
	st.Iteration = int(s.t.Load())
	st.Stopped = s.learningStopped()
	st.TotalSamples = int(s.totalNs.Load())
	st.TotalErrors = int(s.totalNe.Load())
	st.UpdaterName = s.updaterName
	// The updater only ever runs under wMu (applyBatchLocked, Replay), so
	// this export is from the same quiescent point as the rest.
	st.UpdaterState = st.UpdaterState[:0]
	if u, ok := s.cfg.Updater.(optimizer.StateExporter); ok {
		st.UpdaterState = u.AppendState(st.UpdaterState)
	}
	if len(st.UpdaterState) == 0 {
		st.UpdaterState = nil // "no state" is nil, whatever the buffer held
	}
	// One row slice and one slab for every device's label counts: a
	// checkpoint of a large crowd is two allocations the first time and
	// none after. Devices may enroll while this runs (that takes no apply
	// lock), so the count is a hint: rows grow by append, and a device
	// that no longer fits the slab gets a slice of its own; the next
	// export sizes both for it.
	n := s.devices.count()
	rows := st.DeviceRows[:0]
	if cap(rows) < n {
		rows = make([]DeviceRow, 0, n)
	}
	if cap(buf.slab) < n*classes {
		buf.slab = make([]int, 0, n*classes)
	}
	slab := buf.slab[:0]
	s.devices.forEach(func(id string, d *DeviceStats) {
		if cap(slab)-len(slab) < len(d.LabelCounts) {
			slab = make([]int, 0, len(d.LabelCounts))
		}
		lo := len(slab)
		slab = append(slab, d.LabelCounts...)
		row := DeviceRow{ID: id, DeviceStats: *d}
		// Capped at its own length: an append on one row reallocates
		// instead of running into its neighbour's counts.
		row.LabelCounts = slab[lo:len(slab):len(slab)]
		rows = append(rows, row)
	})
	s.wMu.Unlock()
	slices.SortFunc(rows, compareRows)
	st.Devices, st.DeviceRows = nil, rows
	return st
}

// ImportState restores a previously exported state. The snapshot must
// match the server's model name and shape, and its device table, in
// either form, must read back through SortedDevices. Devices present in
// the snapshot are re-created with their counters but WITHOUT
// credentials; they must re-register (see ServerState's security note).
//
// ImportState is a startup-time operation: restore the checkpoint before
// the server starts taking traffic. It excludes concurrent batch
// application via the apply lock, but lock-free stats readers racing the
// restore may observe a mix of old and new counters.
func (s *Server) ImportState(st *ServerState) error {
	if st == nil {
		return fmt.Errorf("core: nil state")
	}
	classes, dim := s.cfg.Model.Shape()
	if st.ModelName != s.cfg.Model.Name() || st.Classes != classes || st.Dim != dim {
		return fmt.Errorf("core: state for %s (%dx%d) does not match server model %s (%dx%d)",
			st.ModelName, st.Classes, st.Dim, s.cfg.Model.Name(), classes, dim)
	}
	if len(st.Params) != classes*dim {
		return fmt.Errorf("core: state params length %d, want %d", len(st.Params), classes*dim)
	}
	if len(st.TotalLabelCounts) != classes {
		return fmt.Errorf("core: state label counts length %d, want %d",
			len(st.TotalLabelCounts), classes)
	}
	rows, err := st.SortedDevices()
	if err != nil {
		return err
	}
	for _, r := range rows {
		if len(r.LabelCounts) != classes {
			return fmt.Errorf("core: device %s label counts length %d, want %d",
				r.ID, len(r.LabelCounts), classes)
		}
	}
	s.wMu.Lock()
	defer s.wMu.Unlock()
	if se, ok := s.cfg.Updater.(optimizer.StateExporter); ok {
		// The state vector is only meaningful to the updater that wrote
		// it: on a name mismatch (the task was reconfigured — AdaGrad →
		// Momentum, or a changed hyperparameter) the updater is reset
		// instead, because silently reinterpreting one updater's vector
		// as another's would corrupt the trajectory without any error.
		// An empty vector likewise resets — restoring from a checkpoint
		// written under stateless SGD starts the accumulators fresh,
		// exactly as a reconfigured task should. The converse (a
		// snapshot carrying state the configured updater cannot absorb)
		// is ignored for the same reason: the operator's current
		// configuration wins.
		state := st.UpdaterState
		if st.UpdaterName != s.updaterName {
			state = nil
		}
		if err := se.ImportState(state); err != nil {
			return fmt.Errorf("core: restore updater state: %w", err)
		}
	}
	copy(s.w.Data(), st.Params)
	s.t.Store(int64(st.Iteration))
	s.totalNs.Store(int64(st.TotalSamples))
	s.totalNe.Store(int64(st.TotalErrors))
	for k := range s.totalNky {
		s.totalNky[k].Store(int64(st.TotalLabelCounts[k]))
	}
	s.stopped.Store(st.Stopped)
	for _, r := range rows {
		r.LabelCounts = append([]int(nil), r.LabelCounts...)
		s.devices.importStats(r.ID, r.DeviceStats)
	}
	// A restore can rewind the iteration counter, so version numbers in
	// the retained delta ring would no longer identify the bases clients
	// hold. Republish, then drop every base: delta checkouts fall back to
	// full frames until fresh snapshots accumulate.
	s.publishSnapshotLocked()
	s.ring.Reset()
	return nil
}
