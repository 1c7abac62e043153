package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

// base64url is the URL-safe alphabet tokens are written in.
const base64url = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

// malformedTokens returns presented tokens that no server issued, each
// derived from the issued token: wrong lengths, a character outside the
// URL-safe alphabet, the last character's spare bits set, and newlines,
// which a base64 decoder skips.
func malformedTokens(token string) map[string]string {
	last := strings.IndexByte(base64url, token[tokenChars-1])
	return map[string]string{
		"empty":                    "",
		"21 characters":            token[:tokenChars-1],
		"23 characters":            token + "A",
		"standard-alphabet +":      token[:7] + "+" + token[8:],
		"padding":                  token[:tokenChars-1] + "=",
		"spare bits flipped":       token[:tokenChars-1] + string(base64url[last^3]),
		"newline inserted":         token[:11] + "\n" + token[11:],
		"newline for the last one": token[:tokenChars-1] + "\n",
		"carriage return, newline": token[:10] + "\r\n" + token[12:],
	}
}

// TestAuthenticateTokenForms: only the exact string RegisterDevice
// returned authenticates. A token that is not 22 characters of strict
// URL-safe base64 gets ErrAuth without a panic, however close it comes to
// the issued one, and so does the all-zero token for a device a restore
// created without a credential.
func TestAuthenticateTokenForms(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	if len(token) != tokenChars {
		t.Fatalf("RegisterDevice issued %q, want %d characters", token, tokenChars)
	}
	if err := s.Authenticate(ctx, "d1", token); err != nil {
		t.Fatalf("the issued token: %v", err)
	}
	st := s.ExportStateInto(nil)
	st.DeviceRows = append(st.DeviceRows, DeviceRow{ID: "restored",
		DeviceStats: DeviceStats{Checkins: 1, Samples: 2, LabelCounts: []int{1, 1, 0}}})
	if err := s.ImportState(st); err != nil {
		t.Fatal(err)
	}
	forms := malformedTokens(token)
	forms["the issued token, another device"] = token
	for name, tok := range forms {
		id := "d1"
		if name == "the issued token, another device" {
			id = "d2"
		}
		if err := s.Authenticate(ctx, id, tok); !errors.Is(err, ErrAuth) {
			t.Errorf("%s (%q): Authenticate = %v, want ErrAuth", name, tok, err)
		}
	}
	zero := strings.Repeat("A", tokenChars)
	if err := s.Authenticate(ctx, "restored", zero); !errors.Is(err, ErrAuth) {
		t.Errorf("the zero token for a restored device: Authenticate = %v, want ErrAuth", err)
	}
	// A restored device re-registers for a token of its own, and keeps the
	// counters the restore gave it.
	fresh := register(t, s, "restored")
	if err := s.Authenticate(ctx, "restored", fresh); err != nil {
		t.Errorf("a restored device's fresh token: %v", err)
	}
	if got, _ := exportedDevice(s, "restored"); got.Checkins != 1 || got.Samples != 2 {
		t.Errorf("re-registration changed the restored counters: %+v", got)
	}
	if err := s.Authenticate(ctx, "d1", token); err != nil {
		t.Errorf("the issued token after a restore: %v", err)
	}
}

// FuzzAuthenticate: of all strings, exactly the issued token
// authenticates its device, none authenticates a device a restore created
// without a credential, and none panics.
func FuzzAuthenticate(f *testing.F) {
	s, err := NewServer(ServerConfig{
		Model:   model.NewLogisticRegression(3, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	})
	if err != nil {
		f.Fatal(err)
	}
	var issued [tokenBytes]byte
	for i := range issued {
		issued[i] = byte(7*i + 1)
	}
	s.devices.register("d1", issued)
	token := tokenEncoding.EncodeToString(issued[:])
	st := s.ExportStateInto(nil)
	st.DeviceRows = append(st.DeviceRows, DeviceRow{ID: "restored", DeviceStats: DeviceStats{LabelCounts: make([]int, 3)}})
	if err := s.ImportState(st); err != nil {
		f.Fatal(err)
	}
	f.Add(token)
	f.Add(strings.Repeat("A", tokenChars))
	for _, tok := range malformedTokens(token) {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		err := s.Authenticate(context.Background(), "d1", tok)
		if tok == token && err != nil {
			t.Fatalf("the issued token %q: %v", tok, err)
		}
		if tok != token && !errors.Is(err, ErrAuth) {
			t.Fatalf("%q authenticates as the holder of %q (err %v)", tok, token, err)
		}
		if err := s.Authenticate(context.Background(), "restored", tok); !errors.Is(err, ErrAuth) {
			t.Fatalf("%q authenticates a restored device (err %v)", tok, err)
		}
	})
}

// TestMalformedTokenSkipsFallback: a token that cannot be an issued one
// is refused before the AuthFallback is asked, so a follower spends no
// round trip to its leader on it; a well-formed unknown token is asked
// about once, and cached.
func TestMalformedTokenSkipsFallback(t *testing.T) {
	calls := 0
	s := newTestServer(t, ServerConfig{AuthFallback: func(context.Context, string, string) error {
		calls++
		return nil
	}})
	issued := register(t, s, "d1")
	for name, tok := range malformedTokens(issued) {
		if err := s.Authenticate(ctx, "d2", tok); !errors.Is(err, ErrAuth) {
			t.Errorf("%s: Authenticate = %v, want ErrAuth", name, err)
		}
	}
	if calls != 0 {
		t.Fatalf("the fallback was asked %d times about malformed tokens, want 0", calls)
	}
	const wellFormed = "vouched-by-the-leaderA"
	for i := 0; i < 2; i++ {
		if err := s.Authenticate(ctx, "d2", wellFormed); err != nil {
			t.Fatalf("a vouched well-formed token: %v", err)
		}
	}
	if calls != 1 {
		t.Errorf("the fallback was asked %d times about one well-formed token, want 1", calls)
	}
}

// liveBytesPerDevice enrols n devices (dev-%05d, in the given order)
// through RegisterDevice on a server whose snapshot ring is already full,
// checks each device whose number active reports in once, and returns the
// live heap they added per device after a collection: what the registry
// keeps for a device, its ID included. The server is returned too.
func liveBytesPerDevice(tb testing.TB, order []int, classes int, active func(i int) bool) (*Server, float64) {
	tb.Helper()
	s, err := NewServer(ServerConfig{
		Model:   model.NewLogisticRegression(classes, 4),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	req := &CheckinRequest{Grad: make([]float64, classes*4), NumSamples: 1, LabelCounts: make([]int, classes)}
	req.LabelCounts[0] = 1
	checkin := func(id string) {
		token, err := s.RegisterDevice(ctx, id)
		if err == nil {
			err = s.Checkin(ctx, id, token, req)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i <= 2*DefaultDeltaHistory; i++ {
		checkin("warm-up") // fill the ring, so only the registry grows below
	}
	// Two collections empty sync.Pool's victim cache too, so the heap read
	// holds what is live and nothing a pool happened to keep.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, i := range order {
		id := fmt.Sprintf("dev-%05d", i)
		if active(i) {
			checkin(id)
		} else if _, err := s.RegisterDevice(ctx, id); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return s, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(order))
}

// TestRegistryBytesPerDevice: at the end-to-end benchmark's 2,000 devices
// of 10 classes, a device that checked in costs its credential and one
// counter row, and a device that never did costs its credential alone.
// On follower_reads about 100 of the 2,000 check in. A map of entries cost
// 254.7 B per device in both cases.
func TestRegistryBytesPerDevice(t *testing.T) {
	const devices, classes = 2000, 10
	order := make([]int, devices)
	for i := range order {
		order[i] = i
	}
	for _, c := range []struct {
		name    string
		active  func(i int) bool
		ceiling float64
	}{
		{"all active", func(int) bool { return true }, 215},
		{"5% active", func(i int) bool { return i < devices/20 }, 85},
	} {
		_, got := liveBytesPerDevice(t, order, classes, c.active)
		t.Logf("%s: %.1f B per device", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: the registry keeps %.1f B per device, want at most %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestCounterSlabAllocatesEachCounterOnce: 2,000 devices' first checkins
// at 10 classes allocate their counter rows once — whole pages that never
// move — and at most a tenth more than the rows themselves. A slab grown
// by append copied every row at each growth: about twice the rows.
func TestCounterSlabAllocatesEachCounterOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted too")
	}
	const devices, classes = 2000, 10
	r := newDeviceRegistry(classes)
	ids := make([]string, devices)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%05d", i)
		r.register(ids[i], [tokenBytes]byte{})
	}
	req := &CheckinRequest{NumSamples: 1, LabelCounts: make([]int, classes)}
	req.LabelCounts[3] = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, id := range ids {
		r.recordCheckin(id, req, 0)
	}
	runtime.ReadMemStats(&after)
	rows := devices * (slabCols + classes) * 8
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d first checkins allocated %d B for %d B of counters", devices, got, rows)
	if float64(got) > 1.1*float64(rows) {
		t.Errorf("%d first checkins allocated %d B, want at most 1.1 × the %d B of counters", devices, got, rows)
	}
	st := &ServerState{}
	st.DeviceRows, _ = r.exportRows(nil, nil)
	for i, d := range st.DeviceRows {
		if d.Checkins != 1 || d.Samples != 1 || d.LabelCounts[3] != 1 {
			t.Fatalf("device %d exported %+v, want one checkin of one sample of class 3", i, d.DeviceStats)
		}
	}
}

// TestRegistryShuffled100k enrols 100,000 devices in shuffled order, one
// in twenty of them checking in once, and reports what a device costs at
// that size, how long its enrolment took, and how long a warm export of
// the table takes. It carries no bound on
// those figures: it checks only that the export holds every device once,
// in ID order.
func TestRegistryShuffled100k(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("100,000 enrolments: about 20 s under the race detector")
	}
	const devices, classes = 100_000, 10
	order := rand.New(rand.NewPCG(47, 100_000)).Perm(devices)
	start := time.Now()
	s, perDevice := liveBytesPerDevice(t, order, classes, func(i int) bool { return i%20 == 0 })
	enrol := time.Since(start)
	t.Logf("%d shuffled enrolments, 5%% of them checked in: %.1f B per device, %.2f µs per device",
		devices, perDevice, float64(enrol.Microseconds())/devices)

	var buf StateBuffer
	st := s.ExportStateInto(&buf)
	if len(st.DeviceRows) != devices+1 {
		t.Fatalf("exported %d devices, want %d and the warm-up device", len(st.DeviceRows), devices)
	}
	if !slices.IsSortedFunc(st.DeviceRows, compareRows) {
		t.Fatal("the export is not in ID order")
	}
	const exports = 5
	start = time.Now()
	for i := 0; i < exports; i++ {
		s.ExportStateInto(&buf)
	}
	t.Logf("warm export of %d devices: %.2f ms", devices, float64(time.Since(start).Microseconds())/exports/1000)
}
