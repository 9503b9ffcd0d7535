package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/resilience"
)

// GET /v1/archive-check — the one route with a *dependency*: it pulls
// captures of a domain out of the configured archive and checks them.
// The archive (disk, or eventually the CDX API over the network) can
// get sick independently of this process, so the route sits behind a
// circuit breaker: after a run of retryable backend failures the
// breaker opens and requests shed in microseconds with 503 instead of
// each one burning a worker on a doomed backend call.

// archiveCheckMaxLimit caps captures fetched per request; checking is
// cheap but each capture is a backend round trip.
const archiveCheckMaxLimit = 10

// ArchivePage is one checked capture.
type ArchivePage struct {
	URL    string `json:"url"`
	Status int    `json:"status"`
	MIME   string `json:"mime"`
	// Violations is present only for HTML captures that checked clean
	// through the pipeline; Error carries a per-page check failure
	// (e.g. not UTF-8) without failing the whole request.
	Violations []Violation `json:"violations"`
	Error      string      `json:"error,omitempty"`
}

// ArchiveCheckResponse is the body of a successful archive-check.
type ArchiveCheckResponse struct {
	Crawl  string        `json:"crawl"`
	Domain string        `json:"domain"`
	Pages  []ArchivePage `json:"pages"`
}

func (s *Server) handleArchiveCheck(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		s.latency.ObserveSince(start)
		s.countStatus(sw.status)
	}()

	if s.cfg.Archive == nil {
		writeError(sw, http.StatusNotFound, "no archive configured", 0)
		return
	}
	if s.draining.Load() {
		sw.Header().Set("Connection", "close")
		s.shed(sw, "drain", http.StatusServiceUnavailable, "server is draining", s.drainHint)
		return
	}
	q := r.URL.Query()
	domain := q.Get("domain")
	if domain == "" {
		writeError(sw, http.StatusBadRequest, "missing required query parameter: domain", 0)
		return
	}
	crawl := q.Get("crawl")
	if crawl == "" {
		crawls := s.cfg.Archive.Crawls()
		if len(crawls) == 0 {
			writeError(sw, http.StatusNotFound, "archive has no crawls", 0)
			return
		}
		crawl = crawls[len(crawls)-1]
	}
	limit := 1
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(sw, http.StatusBadRequest, "limit must be a positive integer", 0)
			return
		}
		limit = min(n, archiveCheckMaxLimit)
	}

	release, err := s.pool.Acquire(r.Context())
	if err != nil {
		if errors.Is(err, resilience.ErrOverloaded) {
			s.shed(sw, "pool", http.StatusServiceUnavailable, "server overloaded", s.pool.RetryAfter())
		}
		return
	}
	defer release()
	s.inflight.Inc()
	defer s.inflight.Dec()

	if err := s.breaker.Allow(); err != nil {
		s.shed(sw, "breaker", http.StatusServiceUnavailable, "archive backend unavailable", s.breakerCooldown())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp, err := s.archiveCheck(ctx, crawl, domain, limit)
	// Every nil Allow pairs with exactly one Record; only backend
	// failures reach err here, so the breaker sees dependency health,
	// not input quality.
	s.breaker.Record(err)
	if err != nil {
		s.writeArchiveError(sw, err)
		return
	}
	writeJSON(sw, http.StatusOK, resp)
}

// archiveCheck fetches up to limit captures and checks the HTML ones.
// A per-page *check* failure is recorded on the page; only *backend*
// failures (query, fetch, deadline) abort and count against the
// breaker.
func (s *Server) archiveCheck(ctx context.Context, crawl, domain string, limit int) (*ArchiveCheckResponse, error) {
	recs, err := s.cfg.Archive.Query(ctx, crawl, domain, limit)
	if err != nil {
		return nil, err
	}
	resp := &ArchiveCheckResponse{Crawl: crawl, Domain: domain, Pages: []ArchivePage{}}
	for _, rec := range recs {
		capt, err := commoncrawl.FetchCapture(ctx, s.cfg.Archive, rec)
		if err != nil {
			return nil, err
		}
		page := ArchivePage{URL: capt.URL, Status: capt.Status, MIME: capt.MIME, Violations: []Violation{}}
		if capt.MIME == "text/html" {
			rep, cerr := s.check(ctx, capt.Body)
			switch {
			case cerr == nil:
				page.Violations = violationsOf(rep)
			case ctx.Err() != nil:
				// The deadline consumed by backend fetches expired
				// mid-check: an overload symptom, not a page property.
				return nil, cerr
			default:
				page.Error = cerr.Error()
			}
		}
		resp.Pages = append(resp.Pages, page)
	}
	return resp, nil
}

// writeArchiveError maps a backend failure by its resilience class: a
// permanent error is the backend answering "no such thing" (404), a
// retryable one is the backend struggling (502 + Retry-After), and our
// own deadline is a shed (503).
func (s *Server) writeArchiveError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.shed(w, "deadline", http.StatusServiceUnavailable, "archive check exceeded the request deadline", s.cfg.RequestTimeout)
		return
	}
	switch resilience.Classify(err) {
	case resilience.ClassPermanent:
		writeError(w, http.StatusNotFound, err.Error(), 0)
	case resilience.ClassFatal:
		writeError(w, http.StatusInternalServerError, err.Error(), 0)
	default:
		writeError(w, http.StatusBadGateway, err.Error(), s.breakerCooldown())
	}
}

// breakerCooldown is the Retry-After hint for breaker sheds: one
// cooldown from now is when probes resume.
func (s *Server) breakerCooldown() time.Duration {
	if s.cfg.Breaker.Cooldown > 0 {
		return s.cfg.Breaker.Cooldown
	}
	return 15 * time.Second
}
