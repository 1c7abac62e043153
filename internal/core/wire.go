// Package core implements the Crowd-ML framework itself: the device-side
// Algorithm 1 (sample buffering, minibatch gradient computation, local
// sanitization, check-in) and the server-side Algorithm 2 (authenticated
// checkout/checkin, asynchronous SGD update, per-device progress counters,
// stopping criteria). See Section III of the paper.
package core

import "context"

// CheckoutResponse carries the current model parameters from the server to
// a device (Server Routine 1 / workflow step 3).
type CheckoutResponse struct {
	// Params is the flattened C×D parameter matrix, row-major. The
	// caller owns it, except from a delta-caching transport (an HTTP
	// client on the binary-delta wire), which hands every caller its one
	// cached vector: shared and read-only there — copy before writing.
	Params []float64 `json:"params"`
	// Version is the server iteration t at which the parameters were read.
	// Devices echo it on check-in so staleness can be measured.
	Version int `json:"version"`
	// Done reports that the server's stopping criteria are met; the device
	// should stop collecting.
	Done bool `json:"done"`
}

// CheckinRequest carries a device's sanitized contribution to the server
// (Device Routine 2/3 output, Server Routine 2 input): the perturbed
// averaged gradient ĝ, the raw sample count n_s, the perturbed
// misclassification count n̂_e and the perturbed label counts n̂^k_y.
type CheckinRequest struct {
	// Grad is the flattened, sanitized averaged gradient ĝ.
	Grad []float64 `json:"grad"`
	// NumSamples is n_s, the number of samples in the minibatch. Per the
	// paper this is transmitted unperturbed.
	NumSamples int `json:"numSamples"`
	// ErrCount is n̂_e, the sanitized misclassification count.
	ErrCount int `json:"errCount"`
	// LabelCounts is n̂^k_y for k = 1..C, sanitized.
	LabelCounts []int `json:"labelCounts"`
	// Version echoes the checkout Version used to compute the gradient.
	Version int `json:"version"`
}

// Transport is the device's view of the communication channel to the
// server. Implementations: *Server itself (in process) and
// transport.HTTPClient (the networked prototype).
type Transport interface {
	// Checkout requests the current parameters (workflow steps 2–3).
	Checkout(ctx context.Context, deviceID, token string) (*CheckoutResponse, error)
	// Checkin submits a sanitized gradient and counters (workflow step 4).
	Checkin(ctx context.Context, deviceID, token string, req *CheckinRequest) error
}

var _ Transport = (*Server)(nil)
