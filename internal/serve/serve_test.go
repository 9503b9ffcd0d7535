package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hvscan/hvscan/internal/cdx"
	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/resilience"
)

// violatingHTML trips both a hook rule (duplicate attribute) and the
// newline-in-URL signal.
const violatingHTML = "<!DOCTYPE html><p id=a id=b>x</p><img src=\"a\nb<c\">"

func post(t *testing.T, h http.Handler, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeCheck(t *testing.T, w *httptest.ResponseRecorder) *CheckResponse {
	t.Helper()
	var resp CheckResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &resp
}

func TestCheckEndpointReportsViolations(t *testing.T) {
	s := New(Config{})
	w := post(t, s, violatingHTML, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeCheck(t, w)
	if len(resp.Violations) == 0 {
		t.Fatal("expected violations for a duplicate-attribute document")
	}
	if !resp.Signals.NewlineInURL {
		t.Fatal("expected the newline-in-URL signal")
	}
	if resp.Bytes != len(violatingHTML) {
		t.Fatalf("bytes = %d, want %d", resp.Bytes, len(violatingHTML))
	}
}

// TestCheckEndpointRuleSubset: a server configured with a rule subset
// reports exactly those rules, tree rules included.
func TestCheckEndpointRuleSubset(t *testing.T) {
	s := New(Config{Checker: core.NewChecker("DM3", "DE4")})
	w := post(t, s, violatingHTML+"<form><form>", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if hits := decodeCheck(t, w).RuleHits; len(hits) != 2 || hits["DM3"] != 1 || hits["DE4"] != 1 {
		t.Fatalf("rule hits = %v, want DM3 and DE4 once each", hits)
	}
}

func TestCheckEndpointMethodNotAllowed(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/check", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", w.Code)
	}
}

func TestCheckEndpointBodyTooLarge(t *testing.T) {
	s := New(Config{MaxBodyBytes: 1024})
	w := post(t, s, strings.Repeat("x", 4096), nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", w.Code)
	}
}

func TestCheckEndpointNotUTF8(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "<p>\xff\xfe broken</p>", nil)
	if w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415; body %s", w.Code, w.Body)
	}
}

func TestCheckEndpointDepthCap(t *testing.T) {
	s := New(Config{MaxTreeDepth: 64})
	w := post(t, s, strings.Repeat("<div>", 5000), nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", w.Code, w.Body)
	}
	// The aborted parse must not poison the pooled parser.
	if w := post(t, s, "<p>ok</p>", nil); w.Code != http.StatusOK {
		t.Fatalf("shallow doc after deep abort: status %d", w.Code)
	}
}

func TestTenantThrottling(t *testing.T) {
	s := New(Config{TenantRate: 0.001, TenantBurst: 2})
	hdrA := map[string]string{"X-Tenant": "a"}
	for i := 0; i < 2; i++ {
		if w := post(t, s, "<p>ok</p>", hdrA); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
	w := post(t, s, "<p>ok</p>", hdrA)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	var resp ErrorResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil || resp.RetryAfterSeconds < 1 {
		t.Fatalf("429 body lacks retry_after_seconds: %+v err=%v", resp, err)
	}
	// Another tenant's bucket is untouched.
	if w := post(t, s, "<p>ok</p>", map[string]string{"X-Tenant": "b"}); w.Code != http.StatusOK {
		t.Fatalf("tenant b throttled by tenant a's debt: status %d", w.Code)
	}
}

func TestDrainGate(t *testing.T) {
	s := New(Config{})
	get := func(path string) int {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.Code
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("readyz before drain: %d", c)
	}
	s.BeginDrain()
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", c)
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (process is alive)", c)
	}
	w := post(t, s, "<p>ok</p>", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("check while draining: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("drain shed without Retry-After")
	}
}

func TestPanicIsolation(t *testing.T) {
	bomb := core.Rule{
		ID:   "TEST_BOMB",
		Name: "panics on marked documents",
		Stream: func() core.RuleStream {
			return core.RuleStream{Token: func(tok *htmlparse.Token, emit func(core.Finding)) {
				if tok.Data == "boom" {
					panic("rule exploded")
				}
			}}
		},
	}
	s := New(Config{Checker: core.NewCheckerWith(bomb)})
	w := post(t, s, "<boom></boom>", nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking check: status %d, want 500", w.Code)
	}
	// The panic was confined to that request: the worker slot was
	// released and the next request succeeds.
	if w := post(t, s, "<p>ok</p>", nil); w.Code != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200", w.Code)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight after panic = %d, want 0", s.InFlight())
	}
	if got := s.panics.Value(); got != 1 {
		t.Fatalf("serve_panics_total = %d, want 1", got)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := New(Config{})
	post(t, s, violatingHTML, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	body, _ := io.ReadAll(w.Body)
	for _, want := range []string{"serve_requests_total", "serve_request_seconds", "serve_body_bytes"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("metrics exposition missing %s:\n%s", want, body)
		}
	}
}

func TestArchiveCheckEndpoint(t *testing.T) {
	g := corpus.New(corpus.Config{Seed: 7, Domains: 64, MaxPages: 4})
	s := New(Config{Archive: commoncrawl.NewSynthetic(g)})
	// Pick a domain that actually has captures in the default (latest)
	// snapshot — presence churns per crawl in the synthetic corpus.
	snap := corpus.Snapshots[len(corpus.Snapshots)-1]
	var domain string
	for _, d := range g.Universe() {
		if g.Present(d, snap) && g.Succeeds(d, snap) && g.PageCount(d, snap) > 0 {
			domain = d
			break
		}
	}
	if domain == "" {
		t.Fatal("no live domain in the synthetic corpus")
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/archive-check?domain="+domain+"&limit=3", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp ArchiveCheckResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Domain != domain || len(resp.Pages) == 0 {
		t.Fatalf("unexpected response: %+v", resp)
	}
}

func TestArchiveCheckNoArchive(t *testing.T) {
	s := New(Config{})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/archive-check?domain=x", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
}

// failingArchive is a backend whose Query always fails retryably —
// the shape of a sick disk or a flapping network.
type failingArchive struct{}

func (failingArchive) Crawls() []string { return []string{"CC-TEST-2022"} }
func (failingArchive) Query(ctx context.Context, crawl, domain string, limit int) ([]*cdx.Record, error) {
	return nil, resilience.Retryable(errArchiveDown)
}
func (failingArchive) ReadRange(ctx context.Context, filename string, offset, length int64) ([]byte, error) {
	return nil, resilience.Retryable(errArchiveDown)
}

var errArchiveDown = errors.New("archive backend down")

func TestArchiveCheckBreakerOpens(t *testing.T) {
	s := New(Config{
		Archive: failingArchive{},
		Breaker: resilience.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour},
	})
	get := func() int {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/archive-check?domain=x", nil))
		return w.Code
	}
	for i := 0; i < 3; i++ {
		if c := get(); c != http.StatusBadGateway {
			t.Fatalf("request %d: status %d, want 502", i, c)
		}
	}
	// The breaker tripped: subsequent requests shed without touching
	// the backend.
	if c := get(); c != http.StatusServiceUnavailable {
		t.Fatalf("post-trip status = %d, want 503", c)
	}
}
