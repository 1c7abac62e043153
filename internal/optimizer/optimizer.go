// Package optimizer implements the stochastic-gradient machinery of
// Crowd-ML: the projected SGD update of Eq. (3), the c/√t learning-rate
// schedule of Eq. (5) plus the adaptive alternatives of Remark 3, and the
// minibatch gradient averaging of Eq. (6).
package optimizer

import (
	"fmt"
	"math"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
)

// Schedule maps the server iteration counter t (1-based) to a learning rate
// η(t).
type Schedule interface {
	// Rate returns η(t) for t ≥ 1.
	Rate(t int) float64
	// Name identifies the schedule in experiment output.
	Name() string
}

// InvSqrt is the paper's default schedule η(t) = c/√t (Eq. 5).
type InvSqrt struct {
	// C is the constant hyperparameter c.
	C float64
}

var _ Schedule = InvSqrt{}

// Rate implements Schedule.
func (s InvSqrt) Rate(t int) float64 {
	if t < 1 {
		t = 1
	}
	return s.C / math.Sqrt(float64(t))
}

// Name implements Schedule.
func (s InvSqrt) Name() string { return fmt.Sprintf("c/sqrt(t), c=%g", s.C) }

// Constant is a fixed learning rate, useful as an ablation baseline.
type Constant struct {
	// C is the fixed rate.
	C float64
}

var _ Schedule = Constant{}

// Rate implements Schedule.
func (s Constant) Rate(int) float64 { return s.C }

// Name implements Schedule.
func (s Constant) Name() string { return fmt.Sprintf("constant %g", s.C) }

// InvT is the η(t) = c/t schedule appropriate for strongly convex risks
// (the O(1/t) optimal rate discussed in Section IV-A).
type InvT struct {
	// C is the constant hyperparameter.
	C float64
}

var _ Schedule = InvT{}

// Rate implements Schedule.
func (s InvT) Rate(t int) float64 {
	if t < 1 {
		t = 1
	}
	return s.C / float64(t)
}

// Name implements Schedule.
func (s InvT) Name() string { return fmt.Sprintf("c/t, c=%g", s.C) }

// Updater applies one server-side parameter update from a (sanitized)
// gradient: the w ← Π_W[w − η(t)·ĝ] step of Eq. (3) and Algorithm 2.
type Updater interface {
	// Update applies gradient g at iteration t (1-based) to w in place.
	Update(w, g *linalg.Matrix, t int)
	// Name identifies the updater.
	Name() string
}

// StateExporter is optionally implemented by Updaters that carry internal
// state beyond the parameter vector — AdaGrad's per-coordinate squared
// accumulators, Momentum's velocity. The server persists the exported
// vector inside its checkpoints (core.ServerState.UpdaterState) and hands
// it back on restore, so recovery replays land on bit-exact parameters
// for stateful updaters too, not only for pure-(w, ĝ, t) rules like the
// paper's SGD schedules.
//
// The payload is a flat float64 vector: every shipped updater's state is
// one coordinate-shaped slice, the values round-trip bit-exactly through
// the checkpoint's JSON encoding (Go prints the shortest representation
// that parses back to the same float64), and a richer updater can pack
// multiple slices into one vector.
type StateExporter interface {
	// ExportState returns a copy of the updater's internal state, or nil
	// when it currently has none (never run, or just reset). The caller
	// owns the returned slice.
	ExportState() []float64
	// ImportState replaces the updater's internal state with a copy of
	// state; nil or empty resets it. Implementations cannot validate the
	// length against the task shape here (they learn it from the first
	// gradient); a mismatched import surfaces on the next Update.
	ImportState(state []float64) error
}

// StateAppender is optionally implemented beside StateExporter by updaters
// that can hand their state out without allocating: the server's
// checkpointer exports into a vector it keeps between checkpoints. All
// shipped stateful updaters implement it.
type StateAppender interface {
	StateExporter
	// AppendState appends the vector ExportState would return to dst and
	// returns the extended slice (dst itself when there is no state).
	AppendState(dst []float64) []float64
}

// SGD is the plain projected-SGD updater of Eq. (3).
type SGD struct {
	// Schedule provides η(t). Required.
	Schedule Schedule
	// Radius is the projection-ball radius R of Π_W. Non-positive disables
	// projection (W = R^d).
	Radius float64
}

var _ Updater = (*SGD)(nil)

// Update implements Updater.
func (u *SGD) Update(w, g *linalg.Matrix, t int) {
	eta := u.Schedule.Rate(t)
	// w -= eta * g, then project.
	linalg.Axpy(-eta, g.Data(), w.Data())
	linalg.ProjectBall(w.Data(), u.Radius)
}

// Name implements Updater.
func (u *SGD) Name() string { return "sgd(" + u.Schedule.Name() + ")" }

// AdaGrad is the adaptive per-coordinate updater referenced in Remark 3
// (Duchi et al. 2010): η_i(t) = Eta / (ε₀ + √Σ g_i²). It is robust to the
// large gradients that outlying or malignant devices can inject.
type AdaGrad struct {
	// Eta is the base learning rate.
	Eta float64
	// Epsilon is the damping constant ε₀ (defaults to 1e-8 if zero).
	Epsilon float64
	// Radius is the projection-ball radius (non-positive disables).
	Radius float64

	accum []float64 // running Σ g_i², lazily sized
}

var _ Updater = (*AdaGrad)(nil)

// Update implements Updater.
func (u *AdaGrad) Update(w, g *linalg.Matrix, t int) {
	data := g.Data()
	if u.accum == nil {
		u.accum = make([]float64, len(data))
	}
	if len(u.accum) != len(data) {
		// Only an ImportState payload of the wrong shape can get here (the
		// server validates every gradient's length before Update runs).
		panic(fmt.Sprintf("optimizer: adagrad state has %d coordinates, gradient has %d",
			len(u.accum), len(data)))
	}
	eps := u.Epsilon
	if eps == 0 {
		eps = 1e-8
	}
	wd := w.Data()
	for i, gi := range data {
		u.accum[i] += gi * gi
		wd[i] -= u.Eta / (eps + math.Sqrt(u.accum[i])) * gi
	}
	linalg.ProjectBall(wd, u.Radius)
}

// Name implements Updater.
func (u *AdaGrad) Name() string { return fmt.Sprintf("adagrad(eta=%g)", u.Eta) }

// Reset clears the accumulated squared gradients so the updater can be
// reused across trials.
func (u *AdaGrad) Reset() { u.accum = nil }

var _ StateAppender = (*AdaGrad)(nil)

// AppendState implements StateAppender: the Σ g_i² accumulators.
func (u *AdaGrad) AppendState(dst []float64) []float64 { return append(dst, u.accum...) }

// ExportState implements StateExporter: a copy of the accumulators.
func (u *AdaGrad) ExportState() []float64 { return u.AppendState(nil) }

// ImportState implements StateExporter.
func (u *AdaGrad) ImportState(state []float64) error {
	if len(state) == 0 {
		u.accum = nil
		return nil
	}
	u.accum = append([]float64(nil), state...)
	return nil
}

// AverageGradient computes the Eq. (6) minibatch gradient
// g̃ = (1/n)·Σ ∇l(h(xᵢ;w), yᵢ) + λ·w into a fresh matrix, exactly as Device
// Routine 2 prescribes. It returns nil if the batch is empty.
func AverageGradient(m model.Model, w *linalg.Matrix, batch []model.Sample, lambda float64) *linalg.Matrix {
	if len(batch) == 0 {
		return nil
	}
	g := model.NewParams(m)
	for _, s := range batch {
		m.AddGradient(w, g, s)
	}
	g.Scale(1 / float64(len(batch)))
	if lambda != 0 {
		// Regularization enters once per minibatch, per Device Routine 2.
		if err := g.AddScaled(lambda, w); err != nil {
			// Shapes are established by NewParams; mismatch is impossible.
			panic(err)
		}
	}
	return g
}

// Momentum is the heavy-ball updater: v ← β·v − η(t)·g, w ← Π_W[w + v].
// Like AdaGrad it is a server-side drop-in that leaves the devices and the
// privacy guarantees untouched (Remark 3).
type Momentum struct {
	// Schedule provides η(t). Required.
	Schedule Schedule
	// Beta is the momentum coefficient β ∈ [0, 1).
	Beta float64
	// Radius is the projection-ball radius (non-positive disables).
	Radius float64

	velocity []float64 // lazily sized
}

var _ Updater = (*Momentum)(nil)

// Update implements Updater.
func (u *Momentum) Update(w, g *linalg.Matrix, t int) {
	data := g.Data()
	if u.velocity == nil {
		u.velocity = make([]float64, len(data))
	}
	if len(u.velocity) != len(data) {
		panic(fmt.Sprintf("optimizer: momentum state has %d coordinates, gradient has %d",
			len(u.velocity), len(data)))
	}
	eta := u.Schedule.Rate(t)
	wd := w.Data()
	for i, gi := range data {
		u.velocity[i] = u.Beta*u.velocity[i] - eta*gi
		wd[i] += u.velocity[i]
	}
	linalg.ProjectBall(wd, u.Radius)
}

// Name implements Updater.
func (u *Momentum) Name() string {
	return fmt.Sprintf("momentum(beta=%g, %s)", u.Beta, u.Schedule.Name())
}

// Reset clears the velocity so the updater can be reused across trials.
func (u *Momentum) Reset() { u.velocity = nil }

var _ StateAppender = (*Momentum)(nil)

// AppendState implements StateAppender: the velocity vector.
func (u *Momentum) AppendState(dst []float64) []float64 { return append(dst, u.velocity...) }

// ExportState implements StateExporter: a copy of the velocity vector.
func (u *Momentum) ExportState() []float64 { return u.AppendState(nil) }

// ImportState implements StateExporter.
func (u *Momentum) ImportState(state []float64) error {
	if len(state) == 0 {
		u.velocity = nil
		return nil
	}
	u.velocity = append([]float64(nil), state...)
	return nil
}

// Clip wraps an Updater and rescales any incoming gradient whose L1 norm
// exceeds MaxNorm1 down to that bound before applying it. The server knows
// every honest device's averaged gradient satisfies ‖g̃‖₁ ≤ S(f)/1 plus
// bounded sanitization noise (Appendix A), so a generous clip leaves honest
// traffic untouched while capping the damage a malignant device can do
// with one checkin — a server-side hardening composable with the Remark 3
// adaptive updaters, and one that never touches the privacy analysis
// (clipping is post-processing of already-sanitized data).
type Clip struct {
	// Inner is the wrapped updater. Required.
	Inner Updater
	// MaxNorm1 is the L1 bound; non-positive disables clipping.
	MaxNorm1 float64
}

var _ Updater = (*Clip)(nil)

// Update implements Updater.
func (u *Clip) Update(w, g *linalg.Matrix, t int) {
	if u.MaxNorm1 > 0 {
		if n := g.Norm1(); n > u.MaxNorm1 {
			g.Scale(u.MaxNorm1 / n)
		}
	}
	u.Inner.Update(w, g, t)
}

// Name implements Updater.
func (u *Clip) Name() string {
	return fmt.Sprintf("clip(L1<=%g, %s)", u.MaxNorm1, u.Inner.Name())
}

var _ StateAppender = (*Clip)(nil)

// AppendState implements StateAppender by delegating to the wrapped
// updater (Clip itself is stateless).
func (u *Clip) AppendState(dst []float64) []float64 {
	switch in := u.Inner.(type) {
	case StateAppender:
		return in.AppendState(dst)
	case StateExporter:
		return append(dst, in.ExportState()...)
	}
	return dst
}

// ExportState implements StateExporter; nil when Inner carries no state.
func (u *Clip) ExportState() []float64 { return u.AppendState(nil) }

// ImportState implements StateExporter by delegating to the wrapped
// updater. State for a stateless Inner is silently dropped — the
// checkpoint was written under a different updater configuration, and
// the operator's new configuration wins.
func (u *Clip) ImportState(state []float64) error {
	if se, ok := u.Inner.(StateExporter); ok {
		return se.ImportState(state)
	}
	return nil
}
