// Command crowdml-device simulates one smart device participating in a
// Crowd-ML task over HTTP: it enrolls with the server, generates activity-
// recognition samples from the synthetic accelerometer simulator
// (Section V-B's pipeline: 20 Hz tri-axial accelerometer → |a| over 3.2 s
// windows → 64-bin FFT → L1 normalization), sanitizes its contributions
// with local differential privacy, and streams them until the server stops
// the task or the sample budget is exhausted.
//
// -eps-inv sets ε⁻¹ for everything a checkin reports about the samples:
// the gradient (Eq. 10), the misclassification count and each label count
// (Eqs. 11–12). The start-up line logs the composed ε. The noise is drawn
// from crypto/rand, so no flag and no device ID can make it predictable;
// -seed seeds only the sensor simulator.
//
// The device joins the task named by -task via the task-scoped
// /v1/tasks/{id}/ routes; the flag defaults to "default", the task
// crowdml-server hosts when it is given no -tasks file.
//
// Example:
//
//	crowdml-device -server http://localhost:8080 -task activity -id phone-1 \
//	    -enroll-key join -samples 300 -minibatch 1 -eps-inv 0.1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	crowdml "github.com/crowdml/crowdml"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "crowdml-device:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the flag set refused and has explained.
var errUsage = errors.New("usage")

// run is the command: it contributes -samples samples, or fewer if the
// server stops the task or ctx is cancelled. Its messages go to stderr;
// it prints nothing on stdout.
func run(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdml-device", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serverURL = fs.String("server", "http://localhost:8080", "server base URL")
		taskID    = fs.String("task", "default", "task ID to join")
		id        = fs.String("id", "phone-1", "device ID")
		enrollKey = fs.String("enroll-key", "", "enrollment key (empty: use -token)")
		token     = fs.String("token", "", "pre-registered auth token")
		samples   = fs.Int("samples", 300, "number of samples to contribute")
		minibatch = fs.Int("minibatch", 1, "minibatch size b")
		epsInv    = fs.Float64("eps-inv", 0, "privacy level ε⁻¹ for the gradient and both counts (0 = off; negative, NaN and Inf are refused)")
		interval  = fs.Duration("interval", 0, "delay between samples (0 = as fast as possible)")
		seed      = fs.Uint64("seed", 0, "sensor-simulation seed (default: derived from id)")
		wire      = fs.String("wire", "json", "wire format for checkout/checkin: json, binary or binary-delta")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	logf := log.New(stderr, "", log.LstdFlags).Printf

	wireFormat, err := crowdml.ParseWireFormat(*wire)
	if err != nil {
		return err
	}
	budget, err := budgetFor(*epsInv)
	if err != nil {
		return err
	}

	client := crowdml.NewHTTPClient(*serverURL, nil).WithTask(*taskID)
	if wireFormat != crowdml.WireJSON {
		client = client.WithWire(wireFormat)
	}
	authToken := *token
	if authToken == "" {
		if *enrollKey == "" {
			return errors.New("either -token or -enroll-key is required")
		}
		authToken, err = client.Register(ctx, *id, *enrollKey)
		if err != nil {
			return fmt.Errorf("enroll: %w", err)
		}
		logf("%s: enrolled", *id)
	}

	s := *seed
	if s == 0 {
		for _, c := range *id {
			s = s*131 + uint64(c)
		}
	}
	m := crowdml.NewLogisticRegression(crowdml.ActivityClasses, crowdml.ActivityFeatureDim)
	device, err := crowdml.NewDevice(crowdml.DeviceConfig{
		ID: *id, Token: authToken, Model: m,
		Transport: client,
		Minibatch: *minibatch,
		Budget:    budget,
	})
	if err != nil {
		return err
	}
	logf("%s: joining task %s, ε⁻¹ = %g on the gradient and both counts: composed ε = %g (0: no noise)",
		*id, *taskID, *epsInv, float64(budget.Total(crowdml.ActivityClasses)))

	gen := crowdml.NewActivitySimulator(s)
	var src crowdml.SampleSource = gen
	if *interval > 0 {
		src = &pacedSource{inner: gen, ctx: ctx, interval: *interval}
	}
	sent := 0
	// closing logs why the device stopped and where its samples went.
	closing := func(why string) {
		logf("%s: %s; took %d samples, sent %d checkins; %d dropped (buffer full), %d refused as bad, %d left buffered",
			*id, why, sent, device.Checkins(), device.Dropped(), device.Refused(), device.Buffered())
	}
	for sent < *samples {
		n, err := device.Run(ctx, src, *samples-sent)
		sent += n
		switch {
		case errors.Is(err, context.Canceled):
			// Ctrl-C / SIGTERM: stand down cleanly.
			closing("interrupted")
			return nil
		case errors.Is(err, crowdml.ErrBufferFull):
			logf("%s: buffer full, backing off: %v", *id, err)
			select {
			case <-time.After(time.Second):
				continue
			case <-ctx.Done():
				closing("interrupted")
				return nil
			}
		case err != nil:
			return err
		}
		break // Run finished: max reached, source drained, or task stopped.
	}
	if device.Done() {
		closing("server reports task complete")
		return nil
	}
	closing("done")
	return nil
}

// budgetFor turns -eps-inv into the device's budget: the same ε for the
// gradient and both counts, since an exact count would reveal the
// device's label histogram. 0 turns the noise off on purpose. FromInv
// would read a negative, NaN or infinite ε⁻¹ as "no noise" as well, and
// +Inf asks for the strongest privacy there is, not for none: each is
// refused.
func budgetFor(epsInv float64) (crowdml.Budget, error) {
	if epsInv < 0 || math.IsNaN(epsInv) || math.IsInf(epsInv, 0) {
		return crowdml.Budget{}, fmt.Errorf("-eps-inv %v: want 0 (no noise) or a positive finite ε⁻¹", epsInv)
	}
	eps := crowdml.FromInv(epsInv)
	return crowdml.Budget{Gradient: eps, ErrCount: eps, LabelCount: eps}, nil
}

// pacedSource throttles a sample source to the configured interval,
// mimicking a real sensor's sampling cadence.
type pacedSource struct {
	inner    crowdml.SampleSource
	ctx      context.Context
	interval time.Duration
	started  bool
}

func (p *pacedSource) Next() (crowdml.Sample, error) {
	if p.started {
		select {
		case <-time.After(p.interval):
		case <-p.ctx.Done():
			return crowdml.Sample{}, p.ctx.Err()
		}
	}
	p.started = true
	return p.inner.Next()
}
