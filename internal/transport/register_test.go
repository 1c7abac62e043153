package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
)

func TestEnrollmentFlow(t *testing.T) {
	h, _ := newHandler(t, 2, 2)
	h.EnableEnrollment("sesame")
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	ctx := context.Background()

	token, err := client.Register(ctx, "phone-9", "sesame")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if token == "" {
		t.Fatal("empty token")
	}
	// Token must work for checkout.
	if _, err := client.Checkout(ctx, "phone-9", token); err != nil {
		t.Errorf("checkout with enrolled token: %v", err)
	}
}

func TestEnrollmentBadKey(t *testing.T) {
	h, _ := newHandler(t, 2, 2)
	h.EnableEnrollment("sesame")
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	if _, err := client.Register(context.Background(), "d", "wrong"); !errors.Is(err, core.ErrAuth) {
		t.Errorf("error = %v, want ErrAuth", err)
	}
}

func TestEnrollmentDisabledByDefault(t *testing.T) {
	h, _ := newHandler(t, 2, 2)
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	if _, err := client.Register(context.Background(), "d", "anything"); err == nil {
		t.Error("registration should fail when enrollment is disabled")
	}
}

func TestEnrollmentEmptyKeyIgnored(t *testing.T) {
	h, _ := newHandler(t, 2, 2)
	h.EnableEnrollment("")
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Post(ts.URL+alphaPath("register"), "application/json", strings.NewReader(`{"deviceId":"d"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("empty enrollment key must not enable the endpoint")
	}
}

func TestEnrollmentValidation(t *testing.T) {
	h, _ := newHandler(t, 2, 2)
	h.EnableEnrollment("k")
	ts := httptest.NewServer(h)
	defer ts.Close()

	do := func(method, body string) int {
		req, _ := http.NewRequest(method, ts.URL+alphaPath("register"), strings.NewReader(body))
		req.Header.Set(headerEnrollKey, "k")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := do(http.MethodGet, ""); got != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", got)
	}
	if got := do(http.MethodPost, "{bad"); got != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", got)
	}
	if got := do(http.MethodPost, `{"deviceId":"  "}`); got != http.StatusBadRequest {
		t.Errorf("empty deviceId status = %d", got)
	}
}
