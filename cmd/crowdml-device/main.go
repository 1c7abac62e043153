// Command crowdml-device simulates one smart device participating in a
// Crowd-ML task over HTTP: it enrolls with the server, generates activity-
// recognition samples from the synthetic accelerometer simulator
// (Section V-B's pipeline: 20 Hz tri-axial accelerometer → |a| over 3.2 s
// windows → 64-bin FFT → L1 normalization), sanitizes its contributions
// with local differential privacy, and streams them until the server stops
// the task or the sample budget is exhausted.
//
// The device joins the task named by -task via the task-scoped
// /v1/tasks/{id}/ routes; the flag defaults to "default", the ID
// crowdml-server gives the task its single-task flags define.
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
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	crowdml "github.com/crowdml/crowdml"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		serverURL = flag.String("server", "http://localhost:8080", "server base URL")
		taskID    = flag.String("task", "default", "task ID to join")
		id        = flag.String("id", "phone-1", "device ID")
		enrollKey = flag.String("enroll-key", "", "enrollment key (empty: use -token)")
		token     = flag.String("token", "", "pre-registered auth token")
		samples   = flag.Int("samples", 300, "number of samples to contribute")
		minibatch = flag.Int("minibatch", 1, "minibatch size b")
		epsInv    = flag.Float64("eps-inv", 0, "privacy level ε⁻¹ for gradients (0 = off)")
		interval  = flag.Duration("interval", 0, "delay between samples (0 = as fast as possible)")
		seed      = flag.Uint64("seed", 0, "sensor-simulation seed (default: derived from id)")
		wire      = flag.String("wire", "json", "wire format for checkout/checkin: json, binary or binary-delta")
	)
	flag.Parse()

	wireFormat, err := crowdml.ParseWireFormat(*wire)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := crowdml.NewHTTPClient(*serverURL, nil).WithTask(*taskID)
	if wireFormat != crowdml.WireJSON {
		client = client.WithWire(wireFormat)
	}
	authToken := *token
	if authToken == "" {
		if *enrollKey == "" {
			return errors.New("either -token or -enroll-key is required")
		}
		var err error
		authToken, err = client.Register(ctx, *id, *enrollKey)
		if err != nil {
			return fmt.Errorf("enroll: %w", err)
		}
		log.Printf("%s: enrolled", *id)
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
		Budget:    crowdml.Budget{Gradient: crowdml.FromInv(*epsInv)},
		Seed:      s,
	})
	if err != nil {
		return err
	}

	gen := crowdml.NewActivitySimulator(s)
	var src crowdml.SampleSource = gen
	if *interval > 0 {
		src = &pacedSource{inner: gen, ctx: ctx, interval: *interval}
	}
	sent := 0
	for sent < *samples {
		n, err := device.Run(ctx, src, *samples-sent)
		sent += n
		switch {
		case errors.Is(err, context.Canceled):
			// Ctrl-C / SIGTERM: stand down cleanly.
			log.Printf("%s: interrupted after %d samples", *id, sent)
			return nil
		case errors.Is(err, crowdml.ErrTaskNotFound):
			// The task does not exist on this server: retrying cannot help.
			return err
		case errors.Is(err, crowdml.ErrBufferFull):
			log.Printf("%s: buffer full, backing off: %v", *id, err)
			select {
			case <-time.After(time.Second):
				continue
			case <-ctx.Done():
				log.Printf("%s: interrupted after %d samples", *id, sent)
				return nil
			}
		case err != nil:
			return err
		}
		break // Run finished: max reached, source drained, or task stopped.
	}
	if device.Done() {
		log.Printf("%s: server reports task complete after %d samples", *id, sent)
		return nil
	}
	log.Printf("%s: contributed %d samples in %d checkins", *id, sent, device.Checkins())
	return nil
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
