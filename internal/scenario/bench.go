package scenario

import (
	"context"
	"fmt"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/rng"
)

// Bench is a pre-built stack plus a registered device pool for
// throughput benchmarking: Step performs one complete virtual-device
// flush cycle — real checkout, core.DeviceStep, real checkin — the
// scenario engine's hot path with the virtual clock factored out.
type Bench struct {
	stack   *stack
	step    core.DeviceConfig
	devs    []*vdevice
	batches [][]model.Sample
}

// NewBench builds the spec's topology, registers the device pool and
// pre-slices one minibatch per device.
func NewBench(spec Spec) (*Bench, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	c, err := spec.crowd()
	if err != nil {
		return nil, err
	}
	st, err := buildStack(ctx, c)
	if err != nil {
		return nil, err
	}
	root := rng.New(c.Seed)
	shards := dataset.Assign(c.Train, c.Devices, root.Split())
	noiseRoot := root.Split()

	b := &Bench{
		stack: st,
		step:  core.DeviceConfig{Model: c.Model, Lambda: c.Lambda, Budget: c.Budget},
	}
	for i := 0; i < c.Devices; i++ {
		d := &vdevice{
			id:     fmt.Sprintf("dev-%05d", i),
			client: st.entry,
			noise:  noiseRoot.Split(),
		}
		tok, err := d.client.Register(ctx, d.id, joinKey)
		if err != nil {
			st.close()
			return nil, err
		}
		d.token = tok
		batch := shards[i]
		if len(batch) > c.Minibatch {
			batch = batch[:c.Minibatch]
		}
		if len(batch) == 0 {
			continue
		}
		b.devs = append(b.devs, d)
		b.batches = append(b.batches, batch)
	}
	if len(b.devs) == 0 {
		st.close()
		return nil, fmt.Errorf("scenario: bench pool is empty")
	}
	return b, nil
}

// Step runs the i-th flush cycle: checkout, device step, checkin.
func (b *Bench) Step(ctx context.Context, i int) error {
	d := b.devs[i%len(b.devs)]
	co, err := d.client.Checkout(ctx, d.id, d.token)
	if err != nil {
		return err
	}
	req, err := core.DeviceStep(&b.step, nil, co, b.batches[i%len(b.batches)], d.noise)
	if err != nil {
		return err
	}
	return d.client.Checkin(ctx, d.id, d.token, req)
}

// Close tears the stack down.
func (b *Bench) Close() { b.stack.close() }
