package core

import (
	"errors"
	"testing"
)

// TestChurnReRegisterKeepsCountersWithoutResurrection covers the churn
// semantics the scenario harness leans on: a device that departs and
// re-registers under the same ID gets fresh credentials, keeps exactly
// one registry entry with its historical counters, contributes nothing
// twice to the crowd totals, and does NOT resurrect its old staleness —
// new checkins accrue staleness only from their own echoed versions.
func TestChurnReRegisterKeepsCountersWithoutResurrection(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	oldToken := register(t, s, "d1")
	helperToken := register(t, s, "helper")

	// d1 checks out at version 0, then the helper advances the server so
	// d1's eventual checkin is stale.
	co, err := s.Checkout(ctx, "d1", oldToken)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		hco, err := s.Checkout(ctx, "helper", helperToken)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Checkin(ctx, "helper", helperToken, validCheckin(hco.Version)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkin(ctx, "d1", oldToken, validCheckin(co.Version)); err != nil {
		t.Fatal(err)
	}
	stats, ok := exportedDevice(s, "d1")
	if !ok {
		t.Fatal("d1 stats missing after checkin")
	}
	if stats.Checkins != 1 || stats.StalenessSum != 3 {
		t.Fatalf("pre-churn stats = %+v, want 1 checkin with staleness 3", stats)
	}
	preSamples, preErrs, preLabels := s.CrowdTotals()

	// The device departs and rejoins: same ID, rotated token.
	newToken := register(t, s, "d1")
	if newToken == oldToken {
		t.Fatal("re-registration did not rotate the token")
	}

	// Re-registration is pure credential rotation: nothing about the
	// learning state may move.
	if gotS, gotE, gotL := s.CrowdTotals(); gotS != preSamples || gotE != preErrs {
		t.Errorf("re-registration changed crowd totals: (%d, %d) vs (%d, %d)", gotS, gotE, preSamples, preErrs)
	} else {
		for k := range gotL {
			if gotL[k] != preLabels[k] {
				t.Errorf("re-registration changed label totals[%d]: %d vs %d", k, gotL[k], preLabels[k])
			}
		}
	}
	stats, ok = exportedDevice(s, "d1")
	if !ok {
		t.Fatal("d1 stats missing after re-registration")
	}
	if stats.Checkins != 1 || stats.Samples != 1 || stats.StalenessSum != 3 {
		t.Errorf("re-registration altered d1's counters: %+v", stats)
	}

	// Exactly one registry entry — the departed incarnation must not be
	// double-counted in the exported roster.
	if n := len(s.ExportStateInto(nil).DeviceRows); n != 2 {
		t.Errorf("exported %d device entries, want 2 (d1 + helper)", n)
	}

	// The old incarnation's credentials are dead on both paths.
	if _, err := s.Checkout(ctx, "d1", oldToken); !errors.Is(err, ErrAuth) {
		t.Errorf("old-token checkout err = %v, want ErrAuth", err)
	}
	if err := s.Checkin(ctx, "d1", oldToken, validCheckin(0)); !errors.Is(err, ErrAuth) {
		t.Errorf("old-token checkin err = %v, want ErrAuth", err)
	}
	if st, _ := exportedDevice(s, "d1"); st.Checkins != 1 {
		t.Errorf("rejected old-token checkin was counted: %+v", st)
	}

	// A fresh checkout+checkin under the new token accrues staleness only
	// from its own version gap (0 here) — the old sum must not bleed in.
	co, err = s.Checkout(ctx, "d1", newToken)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkin(ctx, "d1", newToken, validCheckin(co.Version)); err != nil {
		t.Fatal(err)
	}
	stats, _ = exportedDevice(s, "d1")
	if stats.Checkins != 2 || stats.StalenessSum != 3 {
		t.Errorf("post-rejoin stats = %+v, want 2 checkins with staleness still 3", stats)
	}
	if gotS, _, _ := s.CrowdTotals(); gotS != preSamples+1 {
		t.Errorf("crowd samples = %d, want %d (exactly one new contribution)", gotS, preSamples+1)
	}
}
