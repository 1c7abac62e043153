package transport

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/crowdml/crowdml/internal/core"
)

const headerEnrollKey = "X-Crowdml-Enroll-Key"

type registerRequest struct {
	DeviceID string `json:"deviceId"`
}

type registerResponse struct {
	Token string `json:"token"`
}

// EnableEnrollment adds the enrollment endpoint
// /v1/tasks/{task}/register — the programmatic equivalent of the paper's
// Web portal "join a crowd-learning task" flow (Section V-A) — guarded by
// the given enrollment key. Devices presenting the key
// receive an authentication token for checkout/checkin. An empty key
// leaves enrollment disabled (devices must be registered through the Go
// API).
func (h *Handler) EnableEnrollment(key string) {
	if key == "" {
		return
	}
	h.mux.HandleFunc("POST "+PathTasks+"/{task}/register", func(w http.ResponseWriter, r *http.Request) {
		got := r.Header.Get(headerEnrollKey)
		if subtle.ConstantTimeCompare([]byte(got), []byte(key)) != 1 {
			writeError(w, fmt.Errorf("bad enrollment key: %w", core.ErrAuth))
			return
		}
		// Decode before resolving the target: a sharded task routes the
		// enrollment by the device ID in the body.
		var req registerRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("bad JSON: %v: %w", err, core.ErrBadCheckin))
			return
		}
		if strings.TrimSpace(req.DeviceID) == "" {
			writeError(w, fmt.Errorf("deviceId is required: %w", core.ErrBadCheckin))
			return
		}
		e, ok := h.resolve(w, r)
		if !ok {
			return
		}
		owner := e.Owner(req.DeviceID)
		if rejectReadOnly(w, owner) {
			return
		}
		register := owner.Server().RegisterDevice
		if e.Router != nil {
			register = e.Router.Register
		}
		token, err := register(r.Context(), req.DeviceID)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, registerResponse{Token: token})
	})
}

// Register enrolls a device into the bound task over HTTP and returns
// its token.
func (c *HTTPClient) Register(ctx context.Context, deviceID, enrollKey string) (string, error) {
	payload, err := json.Marshal(registerRequest{DeviceID: deviceID})
	if err != nil {
		return "", fmt.Errorf("transport: encode register: %w", err)
	}
	u, err := c.endpoint("register")
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(string(payload)))
	if err != nil {
		return "", fmt.Errorf("transport: build register: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerEnrollKey, enrollKey)
	req.Header[headerAcceptEncoding] = identityEncoding
	resp, err := c.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("transport: register: %w", err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return "", err
	}
	var out registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("transport: decode register: %w", err)
	}
	return out.Token, nil
}
