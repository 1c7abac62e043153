package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/rng"
)

// DeviceConfig configures a Crowd-ML device (Algorithm 1 inputs).
type DeviceConfig struct {
	// ID identifies the device to the server. Required.
	ID string
	// Token is the authentication token from Server.RegisterDevice.
	Token string
	// Model must match the server's model. Required.
	Model model.Model
	// Transport connects the device to the server. Required.
	Transport Transport
	// Minibatch is b, the number of samples that triggers a checkout
	// (Device Routine 1). Must be ≥ 1; defaults to 1.
	Minibatch int
	// MaxBuffer is B, the secure local buffer cap; sample collection
	// pauses at this size to prevent resource outage. Defaults to 8×b.
	MaxBuffer int
	// Lambda is the regularization weight λ of Eq. (2).
	Lambda float64
	// Budget sets the local differential-privacy levels (Device Routine 3).
	// The zero value disables all perturbation, the "ε⁻¹ = 0" setting.
	Budget privacy.Budget
	// HoldoutFraction, if positive, sets aside this fraction of each
	// minibatch as device-local test data (Remark 2): only those samples
	// feed the misclassification counter, and their gradients are excluded
	// from the average. Note the server-side error estimate ΣN_e/ΣN_s is
	// then scaled down by roughly this fraction, since N_s still counts
	// every sample.
	HoldoutFraction float64
	// Seed seeds the device's private noise/holdout randomness. Devices
	// with equal seeds produce identical noise streams; give every device
	// a distinct seed.
	Seed uint64
	// SecureNoise switches the sanitization noise to a cryptographically
	// secure source (crypto/rand). Production deployments should set this:
	// the DP guarantee assumes unpredictable noise. Seed is ignored for
	// noise generation when set (holdout selection also becomes
	// non-deterministic).
	SecureNoise bool
}

// Device is the device side of Crowd-ML (Algorithm 1). It is not safe for
// concurrent use: a physical device processes its own sensor stream
// sequentially, and simulations give each virtual device its own instance.
type Device struct {
	cfg DeviceConfig
	rng *rng.RNG

	buffer []model.Sample
	// pending is a sanitized minibatch not yet acknowledged: resent as it
	// is, never sanitized again, so a retry releases nothing new.
	pending *CheckinRequest
	// dropped counts samples discarded because the buffer was full.
	dropped int
	// checkins counts successful flushes.
	checkins int
	// done latches once the server reports the task has stopped.
	done bool
}

// NewDevice constructs a device, validating the configuration.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("core: DeviceConfig.ID is required")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: DeviceConfig.Model is required")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("core: DeviceConfig.Transport is required")
	}
	if cfg.Minibatch < 1 {
		cfg.Minibatch = 1
	}
	if cfg.MaxBuffer < cfg.Minibatch {
		cfg.MaxBuffer = 8 * cfg.Minibatch
	}
	if cfg.HoldoutFraction < 0 || cfg.HoldoutFraction >= 1 {
		return nil, fmt.Errorf("core: HoldoutFraction %v outside [0,1)", cfg.HoldoutFraction)
	}
	noise := rng.New(cfg.Seed ^ 0xc2b2ae3d27d4eb4f)
	if cfg.SecureNoise {
		noise = rng.NewSecure()
	}
	return &Device{
		cfg:    cfg,
		rng:    noise,
		buffer: make([]model.Sample, 0, cfg.Minibatch),
	}, nil
}

// Done reports whether the server has told this device the task is over.
func (d *Device) Done() bool { return d.done }

// Buffered returns the number of buffered samples not yet sanitized (n_s).
func (d *Device) Buffered() int { return len(d.buffer) }

// Dropped returns the number of samples discarded due to a full buffer.
func (d *Device) Dropped() int { return d.dropped }

// Checkins returns the number of successful checkins so far.
func (d *Device) Checkins() int { return d.checkins }

// SampleSource yields a device's local sample stream. io.EOF signals a
// clean end of the stream. activity.Generator satisfies this interface.
type SampleSource interface {
	Next() (model.Sample, error)
}

// Run drives the device from a sample source until the source is
// exhausted (io.EOF), the server stops the task, the optional max sample
// count is reached, or ctx is cancelled. It returns the number of
// samples consumed from the source; consumed samples not yet confirmed
// by the server remain buffered or, once sanitized, pending (see Buffered
// and Checkins). Transient transport failures are non-critical (paper
// Remark 1) and do not abort the run: the affected minibatch is retried
// on subsequent steps. If the buffer reaches its cap B and cannot be
// drained (the transport is persistently failing), Run returns
// ErrBufferFull rather than spinning or discarding samples — the buffer
// is retained, so the caller can back off and call Run again. A failure
// to flush the trailing partial minibatch is likewise reported, with the
// buffer retained. A cancelled context aborts with ctx.Err(); a stopped
// task returns nil with the device's Done latched.
func (d *Device) Run(ctx context.Context, src SampleSource, max int) (sent int, err error) {
	if d.done {
		// Already stood down: consume nothing.
		return 0, nil
	}
	for max <= 0 || sent < max {
		if err := ctx.Err(); err != nil {
			return sent, err
		}
		// Drain a full buffer before pulling from the source, so no
		// sample is ever discarded by AddSample's cap check.
		if len(d.buffer) >= d.cfg.MaxBuffer {
			switch ferr := d.Flush(ctx); {
			case errors.Is(ferr, ErrStopped):
				return sent, nil
			case ferr != nil:
				if ctx.Err() != nil {
					return sent, ctx.Err()
				}
				// Full buffer and a failing transport: no progress is
				// possible, so hand control back instead of busy-looping.
				// Both the cause and ErrBufferFull stay errors.Is-able.
				return sent, fmt.Errorf("core: buffer at cap and flush failing: %w (%w)", ferr, ErrBufferFull)
			}
		}
		s, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return sent, fmt.Errorf("core: sample source: %w", err)
		}
		err = d.AddSample(ctx, s)
		// On every path below except ErrBufferFull the sample was
		// consumed and buffered (or flushed), so it counts toward sent.
		switch {
		case errors.Is(err, ErrStopped):
			return sent + 1, nil
		case errors.Is(err, ErrBufferFull):
			// Unreachable given the pre-drain above, but don't spin if it
			// ever happens.
			return sent, err
		case err != nil && ctx.Err() != nil:
			return sent + 1, ctx.Err()
		}
		// Other transport errors: sample is buffered, retried later.
		sent++
	}
	// Flush the trailing partial minibatch; a failure here would
	// otherwise go unretried, so surface it (the buffer is retained).
	if err := d.Flush(ctx); err != nil && !errors.Is(err, ErrStopped) {
		if ctx.Err() != nil {
			return sent, ctx.Err()
		}
		return sent, fmt.Errorf("core: final flush: %w", err)
	}
	return sent, nil
}

// AddSample implements Device Routine 1: buffer the sample and, when the
// minibatch threshold b is reached, attempt a checkout+checkin round trip.
//
// Per the paper's Remark 1, communication failures are non-critical: an
// unacknowledged checkin is resent on the next AddSample.
// The returned error reports such a failure (so callers can log or back
// off) but the device remains usable. ErrBufferFull means the sample was
// discarded because the buffer hit its cap B.
func (d *Device) AddSample(ctx context.Context, s model.Sample) error {
	if d.done {
		return ErrStopped
	}
	if len(d.buffer) >= d.cfg.MaxBuffer {
		d.dropped++
		return ErrBufferFull
	}
	d.buffer = append(d.buffer, s)
	if len(d.buffer) >= d.cfg.Minibatch {
		return d.Flush(ctx)
	}
	return d.checkinPending(ctx)
}

// Flush first resends an unacknowledged checkin as it is (no checkout, no
// fresh noise), then checks out the current parameters, runs Device
// Routines 2 and 3 (DeviceStep) on the buffer and checks the result in.
// The buffer is cleared once sanitized, so each minibatch is released once.
func (d *Device) Flush(ctx context.Context) error {
	if err := d.checkinPending(ctx); err != nil || len(d.buffer) == 0 {
		return err
	}
	co, err := d.cfg.Transport.Checkout(ctx, d.cfg.ID, d.cfg.Token)
	if errors.Is(err, ErrStopped) {
		// The transport relayed that the task is over (e.g. a closed or
		// stopped task over HTTP): stand down like a Done checkout.
		d.done = true
		return ErrStopped
	}
	if err != nil {
		return fmt.Errorf("checkout: %w", err)
	}
	if co.Done {
		d.done = true
		return ErrStopped
	}
	req, err := DeviceStep(&d.cfg, nil, co, d.buffer, d.rng)
	if err != nil {
		return err
	}
	// Reset n_s, n_e, n^k_y (end of Device Routine 2).
	d.buffer = d.buffer[:0]
	d.pending = req
	return d.checkinPending(ctx)
}

// checkinPending sends the pending request, if any. It is dropped once
// acknowledged or refused as malformed (resending cannot help), and kept
// for the next attempt on any other failure.
func (d *Device) checkinPending(ctx context.Context) error {
	if d.pending == nil {
		return nil
	}
	err := d.cfg.Transport.Checkin(ctx, d.cfg.ID, d.cfg.Token, d.pending)
	switch {
	case err == nil:
		d.pending = nil
		d.checkins++
		return nil
	case errors.Is(err, ErrStopped):
		d.done = true
		return ErrStopped
	case errors.Is(err, ErrBadCheckin):
		d.pending = nil
	}
	return fmt.Errorf("checkin: %w", err)
}

// GradientMechanism is the gradient half of Device Routine 3: it sanitizes
// — or, for a modelled adversary, replaces — the averaged gradient g of n
// training samples in place, drawing from the device's stream r.
type GradientMechanism func(g *linalg.Matrix, n int, r *rng.RNG)

// DeviceStep implements Device Routines 2 and 3 of Algorithm 1 — the one
// place a minibatch and the checked-out w become what leaves the device:
// per-sample predictions and counters, the averaged regularized gradient,
// and their sanitization with the local privacy mechanisms. Of cfg it
// reads Model, Lambda, Budget and HoldoutFraction. A non-nil mech replaces
// the Eq. (10) Laplace mechanism at Budget.Gradient (a byzantine device's
// attack.Corrupt, footnote 1's Gaussian variant); the counts are sanitized
// by Eqs. (11)–(12) either way. r is drawn in a fixed order: holdout
// selection (one draw per sample, only with a holdout fraction), gradient
// noise, ErrCount noise, LabelCounts noise.
func DeviceStep(cfg *DeviceConfig, mech GradientMechanism, co *CheckoutResponse, batch []model.Sample, r *rng.RNG) (*CheckinRequest, error) {
	classes, dim := cfg.Model.Shape()
	w, err := linalg.NewMatrixFrom(classes, dim, co.Params)
	if err != nil {
		return nil, fmt.Errorf("checkout params: %w", err)
	}

	// Device Routine 2: predictions, counters, gradient. With a holdout
	// fraction (Remark 2), the misclassification counter is computed only
	// from the held-out samples, whose gradients are excluded from the
	// average; the server's error estimate then reflects generalization
	// rather than training error. Without holdout, every sample feeds
	// both the counter and the gradient, exactly as Algorithm 1 reads.
	ne := 0
	nky := make([]int, classes)
	holdout := cfg.HoldoutFraction > 0
	training := batch
	if holdout {
		training = make([]model.Sample, 0, len(batch))
	}
	for _, s := range batch {
		nky[s.Y]++
		heldOut := holdout && r.Float64() < cfg.HoldoutFraction
		if !holdout || heldOut {
			if cfg.Model.Misclassified(w, s) {
				ne++
			}
		}
		if holdout && !heldOut {
			training = append(training, s)
		}
	}
	g := optimizer.AverageGradient(cfg.Model, w, training, cfg.Lambda)
	if g == nil {
		// Every sample was held out; send a zero gradient so the counters
		// still reach the server.
		g = model.NewParams(cfg.Model)
	}

	// Device Routine 3: sanitize with the local mechanisms.
	if mech != nil {
		mech(g, len(training), r)
	} else {
		privacy.PerturbGradient(g, len(training), cfg.Model.GradientSensitivity(),
			cfg.Budget.Gradient, r)
	}
	return &CheckinRequest{
		Grad:        g.Data(),
		NumSamples:  len(batch),
		ErrCount:    privacy.SanitizeCount(ne, cfg.Budget.ErrCount, r),
		LabelCounts: privacy.SanitizeCounts(nky, cfg.Budget.LabelCount, r),
		Version:     co.Version,
	}, nil
}
