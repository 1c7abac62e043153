// Package invariants checks, after a run, what the paper's Algorithm 2
// and this system's durability promise about a server's state and its
// journal: the iteration counter t counts the applied checkins, the crowd
// totals behind the Eq. (14) estimates compose from the per-device
// counters, a recovered (or replicated) state equals the one it was taken
// from bit for bit, and the journal holds every iteration once, in order.
// Tests and harnesses call it; no serving code does.
package invariants

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/store"
)

// Counters checks st's counter composition: Iteration equals the devices'
// Checkins summed, and TotalSamples, TotalErrors and every
// TotalLabelCounts[k] equal the devices' Samples, Errors and
// LabelCounts[k] summed.
func Counters(st *core.ServerState) error {
	rows, err := st.SortedDevices()
	if err != nil {
		return fmt.Errorf("invariants: %w", err)
	}
	var checkins, samples, errs int
	labels := make([]int, len(st.TotalLabelCounts))
	for _, d := range rows {
		if len(d.LabelCounts) > len(labels) {
			return fmt.Errorf("invariants: device %q has %d label counts, the crowd %d", d.ID, len(d.LabelCounts), len(labels))
		}
		checkins, samples, errs = checkins+d.Checkins, samples+d.Samples, errs+d.Errors
		for k, c := range d.LabelCounts {
			labels[k] += c
		}
	}
	switch {
	case st.Iteration != checkins:
		return fmt.Errorf("invariants: iteration %d, but the devices' checkins sum to %d", st.Iteration, checkins)
	case st.TotalSamples != samples:
		return fmt.Errorf("invariants: TotalSamples %d, but the devices' samples sum to %d", st.TotalSamples, samples)
	case st.TotalErrors != errs:
		return fmt.Errorf("invariants: TotalErrors %d, but the devices' errors sum to %d", st.TotalErrors, errs)
	}
	for k, n := range labels {
		if st.TotalLabelCounts[k] != n {
			return fmt.Errorf("invariants: TotalLabelCounts[%d] %d, but the devices' counts sum to %d", k, st.TotalLabelCounts[k], n)
		}
	}
	return nil
}

// Same checks that got equals want bit for bit: every field, every
// element, every device row, with floats compared by math.Float64bits (so
// -0 differs from +0, and a NaN equals only its own bits). A nil slice
// equals an empty one. The error names the first field that differs, or
// the device map (ExportState's form), which Same refuses.
func Same(got, want *core.ServerState) error {
	if got == nil || want == nil {
		if got != want {
			return fmt.Errorf("invariants: state: got %v, want %v", got, want)
		}
		return nil
	}
	return same("state", reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem())
}

func same(path string, got, want reflect.Value) error {
	switch got.Kind() {
	case reflect.Struct:
		for i := range got.NumField() {
			if err := same(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice:
		if got.Len() != want.Len() {
			return fmt.Errorf("invariants: %s has %d elements, want %d", path, got.Len(), want.Len())
		}
		for i := range got.Len() {
			if err := same(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if got.Len() > 0 || want.Len() > 0 {
			return fmt.Errorf("invariants: %s is set; compare states exported as rows (ExportStateInto)", path)
		}
	case reflect.Float64:
		if g, w := got.Float(), want.Float(); math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("invariants: %s is %v (%#x), want %v (%#x)", path, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	default:
		if g, w := got.Interface(), want.Interface(); g != w {
			return fmt.Errorf("invariants: %s is %v, want %v", path, g, w)
		}
	}
	return nil
}

// Journal checks that a cursor opened at after yields iterations after+1
// through through, each exactly once and in order. ErrJournalTruncated —
// a torn live tail, whose checkin was never acknowledged — counts as a
// clean end.
func Journal(ctx context.Context, st store.Store, after, through int) error {
	cur, err := st.OpenCursor(ctx, after)
	if err != nil {
		return fmt.Errorf("invariants: open journal after %d: %w", after, err)
	}
	defer cur.Close()
	next := after + 1
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) || errors.Is(err, store.ErrJournalTruncated) {
			break
		}
		if err != nil {
			return fmt.Errorf("invariants: journal after %d, at %d: %w", after, next, err)
		}
		if e.Iteration != next {
			return fmt.Errorf("invariants: journal after %d yields iteration %d where %d is next", after, e.Iteration, next)
		}
		if next > through {
			return fmt.Errorf("invariants: journal after %d runs past %d to %d", after, through, next)
		}
		next++
	}
	if next != through+1 {
		return fmt.Errorf("invariants: journal after %d ends after iteration %d, want %d", after, next-1, through)
	}
	return nil
}
