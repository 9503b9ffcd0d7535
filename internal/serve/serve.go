// Package serve is the online checking service: it exposes the
// violation checker of internal/core over HTTP, hardened for hostile
// and overloaded conditions. The design goal (ROADMAP item 3) is that
// the service *degrades*, never *collapses*: every resource a request
// can consume — a worker, a queue slot, body bytes, parse depth, wall
// time — is explicitly bounded, and crossing a bound produces a fast,
// cheap, honest rejection (429/503 with Retry-After, 413, 422, 408)
// instead of an invisible backlog.
//
// The admission path layers, cheapest check first:
//
//	drain gate → per-tenant token bucket → bounded worker pool →
//	capped body read (progress deadline) → deadline-bounded,
//	depth-capped, panic-isolated check
//
// All primitives come from internal/resilience; the checker runs on one
// depth-capped pooled tree parse that checks as it goes
// (core.Checker.CheckContext).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/obs"
	"github.com/hvscan/hvscan/internal/resilience"
)

// Config tunes a Server. The zero value gives a hardened default:
// every knob has a bound — "unlimited" always takes an explicit
// negative opt-out, never a forgotten zero.
type Config struct {
	// Checker runs the rules; nil means the full catalogue
	// (core.NewChecker()).
	Checker *core.Checker
	// Registry receives the serve_* metrics; nil creates a private one.
	Registry *obs.Registry

	// MaxBodyBytes caps the request body (default 2 MiB, the pipeline's
	// document cap). Beyond it the request fails with 413.
	MaxBodyBytes int64
	// MaxTreeDepth caps the open-element stack of every check's parse
	// (default 512); adversarial deep nesting fails with 422.
	MaxTreeDepth int
	// RequestTimeout bounds the check itself (default 2s); the deadline
	// propagates into the tokenizer/tree-builder loops.
	RequestTimeout time.Duration
	// BodyProgressTimeout bounds the wait for each body read to make
	// progress (default 5s) — the slowloris defense: a client trickling
	// bytes is cut off with 408, freeing its worker. Negative disables.
	BodyProgressTimeout time.Duration

	// Admission configures the global bounded worker pool.
	Admission resilience.AdmissionConfig
	// TenantRate / TenantBurst configure the per-tenant token buckets
	// (default 100 req/s, burst 200). A negative rate disables
	// per-tenant limiting (benchmarks, trusted single-tenant loads).
	TenantRate  float64
	TenantBurst float64
	// MaxTenants caps the tracked-tenant map
	// (default resilience.DefaultMaxTenants).
	MaxTenants int

	// Archive, when set, enables GET /v1/archive-check: fetch captures
	// of a domain from the archive and check them. The endpoint is
	// guarded by a circuit breaker so a sick archive backend sheds fast
	// instead of tying up workers.
	Archive commoncrawl.Archive
	// Breaker tunes that circuit breaker.
	Breaker resilience.BreakerConfig
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 2 << 20
	}
	if c.MaxTreeDepth == 0 {
		c.MaxTreeDepth = 512
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.BodyProgressTimeout == 0 {
		c.BodyProgressTimeout = 5 * time.Second
	}
	if c.TenantRate == 0 {
		c.TenantRate = 100
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 2 * c.TenantRate
	}
	return c
}

// Server is the checking service. Construct with New; it implements
// http.Handler.
type Server struct {
	cfg      Config
	checker  *core.Checker
	reg      *obs.Registry
	pool     *resilience.AdmissionPool
	tenants  *resilience.Buckets // nil when per-tenant limiting is off
	breaker  *resilience.Breaker
	mux      *http.ServeMux
	draining atomic.Bool

	reqs       map[string]*obs.Counter // by status class
	shedBy     map[string]*obs.Counter // by shed reason
	latency    *obs.Histogram
	inflight   *obs.Gauge
	bodySize   *obs.Histogram
	panics     *obs.Counter
	fixReqs    map[string]*obs.Counter // by repair outcome
	fixLatency *obs.Histogram
	drainHint  time.Duration
}

// Metric names are part of the measurement contract (obsnames lint).
const (
	metricRequestsTotal  = "serve_requests_total"
	metricShedTotal      = "serve_shed_total"
	metricRequestSeconds = "serve_request_seconds"
	metricInflight       = "serve_inflight_requests"
	metricBodyBytes      = "serve_body_bytes"
	metricPanicsTotal    = "serve_panics_total"
	metricFixTotal       = "serve_fix_requests_total"
	metricFixSeconds     = "serve_fix_seconds"
)

// fixOutcomes are the label values of serve_fix_requests_total: the
// repair engine's outcomes plus "error" for requests that never reached
// a verdict (bad encoding, depth cap, deadline, panic).
func fixOutcomes() []string { return append(autofix.Outcomes(), "error") }

// statusClasses are the fixed label values of serve_requests_total.
// "other" absorbs anything unmapped, including requests whose client
// vanished before a status was written.
var statusClasses = []string{
	"200", "400", "404", "405", "408", "413", "415", "422", "429", "500", "502", "503", "other",
}

// shedReasons are the fixed label values of serve_shed_total, one per
// gate that can reject work: the drain gate, the tenant bucket, the
// worker pool, the request deadline, and the archive breaker.
var shedReasons = []string{"drain", "tenant", "pool", "deadline", "breaker"}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	checker := cfg.Checker
	if checker == nil {
		checker = core.NewChecker().Instrument(reg)
	}
	s := &Server{
		cfg:        cfg,
		checker:    checker,
		reg:        reg,
		pool:       resilience.NewAdmissionPool(cfg.Admission),
		breaker:    resilience.NewBreaker(cfg.Breaker),
		reqs:       reg.CounterVec(metricRequestsTotal, "code", statusClasses...),
		shedBy:     reg.CounterVec(metricShedTotal, "reason", shedReasons...),
		latency:    reg.Histogram(metricRequestSeconds, obs.DurationBuckets),
		inflight:   reg.Gauge(metricInflight),
		bodySize:   reg.Histogram(metricBodyBytes, obs.SizeBuckets),
		panics:     reg.Counter(metricPanicsTotal),
		fixReqs:    reg.CounterVec(metricFixTotal, "outcome", fixOutcomes()...),
		fixLatency: reg.Histogram(metricFixSeconds, obs.DurationBuckets),
		drainHint:  time.Second,
	}
	if cfg.TenantRate > 0 {
		s.tenants = resilience.NewBuckets(cfg.TenantRate, cfg.TenantBurst, cfg.MaxTenants)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/check", s.handleCheck)
	s.mux.HandleFunc("POST /v1/fix", s.handleFix)
	s.mux.HandleFunc("GET /v1/archive-check", s.handleArchiveCheck)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	debug := obs.NewDebugMux(reg)
	s.mux.Handle("GET /metrics", debug)
	s.mux.Handle("/debug/pprof/", debug)
	return s
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ServeHTTP dispatches to the server's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// BeginDrain flips the server into draining: readyz starts failing (so
// load balancers stop routing here) and new check requests are shed
// with 503 while in-flight ones finish. Run wires this to context
// cancellation; it is idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of admitted, still-running checks.
func (s *Server) InFlight() int { return s.pool.InFlight() }

// Violation is one finding in a response.
type Violation struct {
	Rule     string `json:"rule"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Evidence string `json:"evidence,omitempty"`
}

// CheckResponse is the body of a successful POST /v1/check.
type CheckResponse struct {
	// Bytes is the checked document's size.
	Bytes int `json:"bytes"`
	// Violations lists every finding; RuleHits aggregates them by rule.
	Violations []Violation    `json:"violations"`
	RuleHits   map[string]int `json:"rule_hits,omitempty"`
	// Signals are the paper's auxiliary per-page measurements.
	Signals core.Signals `json:"signals"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// errCheckPanicked reports a rule or parser panic isolated by the
// per-request recover; the request fails 500 but the process lives.
var errCheckPanicked = errors.New("serve: internal panic while checking the document")

// admitAndRead runs the shared admission prelude of the document
// endpoints: drain gate → per-tenant token bucket → bounded worker pool
// → capped, progress-deadlined body read. Order matters: each gate is
// cheaper than the next, so a rejected request costs as little as
// possible. ok is false when the request was already answered; cleanup
// (pool release, in-flight gauge, body buffer return) must be deferred
// either way.
func (s *Server) admitAndRead(sw *statusWriter, r *http.Request) (body []byte, cleanup func(), ok bool) {
	cleanup = func() {}
	if s.draining.Load() {
		sw.Header().Set("Connection", "close")
		s.shed(sw, "drain", http.StatusServiceUnavailable, "server is draining", s.drainHint)
		return nil, cleanup, false
	}
	if s.tenants != nil {
		if ra, err := s.tenants.Allow(tenantOf(r)); err != nil {
			s.shed(sw, "tenant", http.StatusTooManyRequests, "tenant rate limit exceeded", ra)
			return nil, cleanup, false
		}
	}
	release, err := s.pool.Acquire(r.Context())
	if err != nil {
		if errors.Is(err, resilience.ErrOverloaded) {
			s.shed(sw, "pool", http.StatusServiceUnavailable, "server overloaded", s.pool.RetryAfter())
		}
		// Otherwise the client went away while queued: nothing to write.
		return nil, cleanup, false
	}
	s.inflight.Inc()
	body, putBody, err := readBody(sw, r, s.cfg.MaxBodyBytes, s.cfg.BodyProgressTimeout)
	cleanup = func() {
		putBody()
		s.inflight.Dec()
		release()
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrBodyTooLarge):
			writeError(sw, http.StatusRequestEntityTooLarge, "request body exceeds "+strconv.FormatInt(s.cfg.MaxBodyBytes, 10)+" bytes", 0)
		case errors.Is(err, ErrBodyStalled):
			sw.Header().Set("Connection", "close")
			writeError(sw, http.StatusRequestTimeout, "request body stalled", 0)
		default:
			writeError(sw, http.StatusBadRequest, "unreadable request body", 0)
		}
		return nil, cleanup, false
	}
	s.bodySize.Observe(float64(len(body)))
	return body, cleanup, true
}

// handleCheck runs the admission pipeline described in the package
// comment, then the deadline-bounded, panic-isolated check.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		s.latency.ObserveSince(start)
		s.countStatus(sw.status)
	}()

	body, cleanup, ok := s.admitAndRead(sw, r)
	defer cleanup()
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	rep, err := s.check(ctx, body)
	if err != nil {
		s.writeCheckError(sw, r, err)
		return
	}
	writeJSON(sw, http.StatusOK, checkResponseOf(rep, len(body)))
}

// writeCheckError maps a check failure to its response. Input faults
// are 4xx; exhausting the request deadline is an overload symptom and
// sheds 503 with the honest hint "one full timeout from now".
func (s *Server) writeCheckError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, htmlparse.ErrNotUTF8):
		writeError(w, http.StatusUnsupportedMediaType, "document is not valid UTF-8", 0)
	case errors.Is(err, htmlparse.ErrTreeDepthExceeded):
		writeError(w, http.StatusUnprocessableEntity, "document nests deeper than "+strconv.Itoa(s.cfg.MaxTreeDepth)+" elements", 0)
	case errors.Is(err, errCheckPanicked):
		writeError(w, http.StatusInternalServerError, "internal error while checking the document", 0)
	case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
		s.shed(w, "deadline", http.StatusServiceUnavailable, "check exceeded the request deadline", s.cfg.RequestTimeout)
	default:
		// The client disconnected mid-check: nothing useful to write.
	}
}

// check runs the document through the checker with panic isolation: a
// depth-capped scoped tree parse with the rules hooked into it, whose
// tree goes back to the parser pool once the report is built. A panic in
// a rule or the parser is confined to this request: the recover converts
// it to an error, and the deferred pool release in the caller still runs.
func (s *Server) check(ctx context.Context, body []byte) (rep *core.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			rep, err = nil, errCheckPanicked
		}
	}()
	return s.checker.CheckContext(ctx, body, s.cfg.MaxTreeDepth)
}

// AppliedFix is one verified repair action in a FixResponse.
type AppliedFix struct {
	Rule        string `json:"rule"`
	Description string `json:"description"`
	Line        int    `json:"line"`
	Col         int    `json:"col"`
}

// UnfixableRule explains why a rule's violations could not be repaired.
type UnfixableRule struct {
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
}

// FixResponse is the body of a successful POST /v1/fix. HTML always
// carries bytes that are safe to serve: the verified repaired document,
// or the original input byte for byte when the outcome is unfixable —
// the engine never emits unverified output.
type FixResponse struct {
	// Outcome is clean, fixed, partial, or unfixable.
	Outcome string `json:"outcome"`
	// Bytes is the returned document's size.
	Bytes int `json:"bytes"`
	// HTML is the repaired document (the input, when clean or unfixable).
	HTML string `json:"html"`
	// Applied lists every verified fix; empty for clean and unfixable.
	Applied []AppliedFix `json:"applied,omitempty"`
	// Unfixable lists the rules whose repair failed verification.
	Unfixable []UnfixableRule `json:"unfixable,omitempty"`
	// RemainingHits are the violations still present in HTML, by rule.
	RemainingHits map[string]int `json:"remaining_hits,omitempty"`
	// Rounds is how many fix→recheck rounds the repair took.
	Rounds int `json:"rounds"`
}

// handleFix is POST /v1/fix: the same admission pipeline as /v1/check,
// then the validated repair engine under the request deadline. Every
// request lands in serve_fix_requests_total by outcome.
func (s *Server) handleFix(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	outcome := ""
	defer func() {
		s.fixLatency.ObserveSince(start)
		s.latency.ObserveSince(start)
		s.countStatus(sw.status)
		if outcome == "" {
			outcome = "error"
		}
		s.fixReqs[outcome].Inc()
	}()

	body, cleanup, ok := s.admitAndRead(sw, r)
	defer cleanup()
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	res, err := s.repair(ctx, body)
	if err != nil {
		s.writeCheckError(sw, r, err)
		return
	}
	outcome = string(res.Outcome())
	resp := &FixResponse{
		Outcome:       outcome,
		Bytes:         len(res.Output),
		HTML:          string(res.Output),
		RemainingHits: res.RemainingHits,
		Rounds:        res.Rounds,
	}
	for _, f := range res.Applied {
		resp.Applied = append(resp.Applied, AppliedFix{
			Rule: f.RuleID, Description: f.Description, Line: f.Pos.Line, Col: f.Pos.Col,
		})
	}
	for _, u := range res.Unfixable {
		resp.Unfixable = append(resp.Unfixable, UnfixableRule{Rule: u.RuleID, Reason: u.Reason})
	}
	writeJSON(sw, http.StatusOK, resp)
}

// repair runs the repair engine with the same panic isolation as check:
// a panic costs this request, never the process.
func (s *Server) repair(ctx context.Context, body []byte) (res *autofix.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			res, err = nil, errCheckPanicked
		}
	}()
	return autofix.RepairContext(ctx, body, autofix.Options{MaxTreeDepth: s.cfg.MaxTreeDepth})
}

func checkResponseOf(rep *core.Report, size int) *CheckResponse {
	resp := &CheckResponse{
		Bytes:      size,
		Violations: violationsOf(rep),
		RuleHits:   rep.RuleHits,
		Signals:    rep.Signals,
	}
	return resp
}

func violationsOf(rep *core.Report) []Violation {
	vs := make([]Violation, len(rep.Findings))
	for i, f := range rep.Findings {
		vs[i] = Violation{Rule: f.RuleID, Line: f.Pos.Line, Col: f.Pos.Col, Evidence: f.Evidence}
	}
	return vs
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz fails while draining so load balancers pull the
// instance before its listener closes — the other half of zero-downtime
// restarts besides Run's in-flight drain.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}

// tenantOf identifies the requester for rate limiting: the X-Tenant
// header when present (trusted deployments put an API key ID here),
// else the peer IP — so an unauthenticated flood still only throttles
// its own source address.
//
//hv:hotpath runs before admission, on every request including floods
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// shed records a rejected request and answers with the Retry-After
// hint. Shedding is the service working as designed, not failing — it
// gets its own counter so overload is visible as a rate, not an error
// log.
//
//hv:hotpath rejections must stay cheaper than the work they refuse
func (s *Server) shed(w http.ResponseWriter, reason string, status int, msg string, retryAfter time.Duration) {
	if c, ok := s.shedBy[reason]; ok {
		c.Inc()
	}
	writeError(w, status, msg, retryAfter)
}

func (s *Server) countStatus(status int) {
	key := strconv.Itoa(status)
	c, ok := s.reqs[key]
	if !ok {
		c = s.reqs["other"]
	}
	c.Inc()
}

// writeError emits the JSON error body; a positive retryAfter adds the
// Retry-After header (whole seconds, rounded up, minimum 1 — clients
// treat 0 as "immediately", which defeats the backoff).
func writeError(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	resp := ErrorResponse{Error: msg}
	if retryAfter > 0 {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		resp.RetryAfterSeconds = secs
	}
	writeJSON(w, status, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// statusWriter records the status for the serve_requests_total
// counter. Unwrap keeps http.NewResponseController working through it
// (the body reader sets per-chunk read deadlines on the underlying
// connection).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }
