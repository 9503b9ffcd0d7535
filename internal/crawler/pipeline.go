// Package crawler implements the four-stage measurement pipeline of the
// paper's Figure 6: collect capture metadata from the (simulated) Common
// Crawl index, fetch the WARC records, run the violation checker, and
// store per-domain aggregates. Stages run on bounded worker pools; the
// paper reports ~1,000 pages/minute from one machine, and this pipeline
// comfortably exceeds that against the synthetic archive.
//
// The pipeline degrades gracefully under partial failure: archive calls
// run under a retry policy (exponential backoff + jitter) behind a
// circuit breaker, errors are classified (retryable / permanent /
// fatal, internal/resilience), and a failed domain consumes one unit of
// the snapshot's error budget instead of aborting the run — only
// budget exhaustion or a fatal error stops a snapshot. A checker panic
// on adversarial HTML is recovered into a per-page failure. With a
// resume journal configured (internal/store), completed (crawl, domain)
// pairs survive a crash and are skipped on restart.
//
// Every stage is instrumented (metrics.go): latency histograms, byte and
// outcome counters, and in-flight gauges, exposed through
// Pipeline.Metrics() and any obs.Registry passed in Config.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/cdx"
	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/obs"
	"github.com/hvscan/hvscan/internal/resilience"
	"github.com/hvscan/hvscan/internal/store"
)

// NoRetries disables retrying entirely when assigned to Config.Retries.
// The zero value of Retries means "use the default" (2), so a sentinel is
// needed to say "really zero retries" — any negative value works, but use
// the constant to make call sites self-explanatory.
const NoRetries = -1

// NoDelay disables the sleep between retry attempts when assigned to
// Config.RetryDelay. Like NoRetries, it exists because the zero value
// means "use the default" (50ms) — before this sentinel, tests asking
// for 0 silently got 50ms per retry.
const NoDelay time.Duration = -1

// UnlimitedFailures disables the per-snapshot error budget when
// assigned to Config.MaxDomainFailures: every domain may fail and the
// snapshot still completes (only fatal errors stop it).
const UnlimitedFailures = -1

// Checker runs the violation rules over one HTML document.
// *core.Checker is the production implementation; tests substitute
// adversarial ones.
type Checker interface {
	Check(html []byte) (*core.Report, error)
}

// Config tunes the pipeline.
type Config struct {
	// Workers is the number of concurrent domain workers (default: NumCPU).
	Workers int
	// PagesPerDomain caps captures per domain (the paper uses 100).
	PagesPerDomain int
	// Retries is how often a failed index query or record fetch is retried
	// before the domain errors out. Zero means the default of 2 (long
	// network crawls must survive transient faults); assign NoRetries to
	// disable retrying.
	Retries int
	// RetryDelay is the base backoff between attempts, growing
	// exponentially with ±50% jitter. Zero means the default of 50ms;
	// assign NoDelay to really disable sleeping (tests).
	RetryDelay time.Duration
	// MaxDomainFailures is the per-snapshot error budget: how many
	// domains may fail (after retries) before RunSnapshot gives up.
	// Zero means the default of 10% of the snapshot's domains (at least
	// 1); assign UnlimitedFailures to never stop on domain failures.
	MaxDomainFailures int
	// BreakerThreshold is how many consecutive retryable archive
	// failures open the circuit breaker that sheds archive load. Zero
	// means the default of max(8, 2×Workers); any negative value
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds load before
	// probing the archive again (default 5s).
	BreakerCooldown time.Duration
	// MaxDocumentBytes skips captures larger than this before checking
	// (default 2 MiB — Common Crawl itself truncates records at 1 MiB, so
	// anything bigger is either truncated junk or a decompression bomb).
	MaxDocumentBytes int
	// Fix enables the machine-repairability measurement mode: every
	// analyzed page additionally runs through the validated repair
	// engine (internal/autofix) and its outcome — clean, fixed, partial
	// or unfixable — is aggregated per domain and per snapshot. The
	// repaired bytes are measured, not persisted.
	Fix bool
	// Journal, if set, records every completed (crawl, domain) pair and
	// is consulted before measuring: already-journaled pairs are
	// replayed into the stats and store instead of re-crawled. This is
	// the crash-safe resume path of `hvcrawl -resume`.
	Journal *store.Journal
	// Progress, if set, receives one call per finished domain —
	// measured, failed, or replayed from the journal.
	Progress func(crawl, domain string, done, total int)
	// Registry receives the pipeline's metric series. Nil means a private
	// registry, still reachable via Pipeline.Metrics().Registry().
	Registry *obs.Registry
}

// Pipeline wires an archive to a checker and a store.
type Pipeline struct {
	archive commoncrawl.Archive
	checker Checker
	store   *store.Store
	cfg     Config
	metrics *Metrics
	policy  resilience.Policy
	breaker *resilience.Breaker // nil when disabled
}

// New assembles a pipeline.
func New(a commoncrawl.Archive, c Checker, st *store.Store, cfg Config) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.PagesPerDomain <= 0 {
		cfg.PagesPerDomain = 100
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0 // NoRetries (or any negative): disabled
	} else if cfg.Retries == 0 {
		cfg.Retries = 2 // unset: default
	}
	if cfg.RetryDelay < 0 {
		cfg.RetryDelay = 0 // NoDelay (or any negative): disabled
	} else if cfg.RetryDelay == 0 {
		cfg.RetryDelay = 50 * time.Millisecond
	}
	if cfg.MaxDocumentBytes <= 0 {
		cfg.MaxDocumentBytes = 2 << 20
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	m := NewMetrics(cfg.Registry)
	p := &Pipeline{
		archive: a, checker: c, store: st, cfg: cfg,
		metrics: m,
	}
	p.policy = resilience.Policy{
		MaxAttempts: cfg.Retries + 1,
		BaseDelay:   cfg.RetryDelay,
		Jitter:      0.5,
		OnRetry: func(attempt int, sleep time.Duration, err error) {
			m.Retries.Inc()
			m.Res.Retries.Inc()
			m.Res.BackoffSeconds.Observe(sleep.Seconds())
		},
	}
	if cfg.BreakerThreshold >= 0 {
		threshold := cfg.BreakerThreshold
		if threshold == 0 {
			// Workers fail in bursts: every worker can lose its in-flight
			// call to one archive hiccup, so the default threshold scales
			// with concurrency to avoid tripping on a single blip.
			threshold = 2 * cfg.Workers
			if threshold < 8 {
				threshold = 8
			}
		}
		p.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: threshold,
			Cooldown:         cfg.BreakerCooldown,
			OnStateChange:    m.Res.BreakerHook(),
		})
	}
	return p
}

// Store returns the pipeline's result store.
func (p *Pipeline) Store() *store.Store { return p.store }

// Metrics returns the pipeline's instrumentation, for exposition servers,
// end-of-run summaries, and test assertions.
func (p *Pipeline) Metrics() *Metrics { return p.metrics }

// Breaker returns the archive circuit breaker, or nil when disabled.
func (p *Pipeline) Breaker() *resilience.Breaker { return p.breaker }

// SnapshotStats summarizes one crawl run (one Table 2 row).
type SnapshotStats = store.CrawlStats

// guard runs one archive call through the circuit breaker (when
// enabled): shed with ErrBreakerOpen while the archive is failing,
// record the outcome otherwise.
func (p *Pipeline) guard(f func() error) error {
	if p.breaker == nil {
		return f()
	}
	if err := p.breaker.Allow(); err != nil {
		p.metrics.Res.BreakerShed.Inc()
		return err
	}
	err := f()
	p.breaker.Record(err)
	return err
}

// domainOutcome is one worker's verdict on one domain: the (possibly
// partial) result, and the classified error if the domain failed.
type domainOutcome struct {
	dr    *store.DomainResult
	err   error
	class resilience.Class
}

// RunSnapshot measures all domains against one crawl.
//
// Failure semantics: a domain that exhausts its retries (or hits a
// permanent fault) is recorded in the returned stats — DomainsFailed,
// FailedByClass, and the per-domain Failed ledger, with its partial
// page counts — and the run continues. The snapshot stops early only
// when the error budget (Config.MaxDomainFailures) is exhausted, a
// fatal error surfaces, or ctx is canceled; in every case the stats
// reflect all work completed up to that point. Cancellation interrupts
// in-flight domains between pages, not just between domains.
func (p *Pipeline) RunSnapshot(ctx context.Context, crawl string, domains []string) (SnapshotStats, error) {
	stats := SnapshotStats{Crawl: crawl, Domains: len(domains)}
	budget := p.cfg.MaxDomainFailures
	if budget == 0 {
		if budget = len(domains) / 10; budget < 1 {
			budget = 1
		}
	} else if budget < 0 {
		budget = len(domains) + 1 // UnlimitedFailures: never exhausted
	}
	m := p.metrics

	// Cancellation fans out to every in-flight worker: budget
	// exhaustion and fatal errors use the same mechanism as the caller.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Resume: replay journaled pairs into stats and store before
	// dispatching anything; only the remainder is measured.
	type job struct {
		domain string
		rank   int
	}
	todo := make([]job, 0, len(domains))
	total := len(domains)
	done := 0
	for i, d := range domains {
		if p.cfg.Journal != nil {
			if e, ok := p.cfg.Journal.Entry(crawl, d); ok {
				done++
				p.replay(e, &stats)
				if p.cfg.Progress != nil {
					p.cfg.Progress(crawl, d, done, total)
				}
				continue
			}
		}
		todo = append(todo, job{domain: d, rank: i + 1})
	}

	// A resumed run may already be over budget (the previous run ended
	// that way); surface it before doing more work.
	var failErr error
	noteFailure := func(o domainOutcome) {
		if o.class == resilience.ClassFatal && failErr == nil {
			failErr = fmt.Errorf("crawler: fatal error on %s: %w", o.dr.Domain, o.err)
			cancel()
		} else if stats.DomainsFailed > budget && failErr == nil {
			failErr = fmt.Errorf("crawler: error budget exhausted (%d domains failed, budget %d), last: %w",
				stats.DomainsFailed, budget, o.err)
			cancel()
		}
	}
	if stats.DomainsFailed > budget {
		// The previous run already spent the budget; resuming cannot
		// recover, so the condition is fatal, not retryable.
		return stats, resilience.Fatal(fmt.Errorf("crawler: error budget already exhausted by resumed journal (%d failed, budget %d)",
			stats.DomainsFailed, budget))
	}

	jobs := make(chan job)
	results := make(chan domainOutcome)
	var wg sync.WaitGroup
	for w := 0; w < p.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				m.DomainsStarted.Inc()
				m.InFlight.Inc()
				dr, err := p.measureDomain(ctx, crawl, j.domain, j.rank)
				m.InFlight.Dec()
				o := domainOutcome{dr: dr, err: err}
				if err != nil {
					o.class = resilience.Classify(err)
				}
				results <- o
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, j := range todo {
			select {
			case jobs <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	for o := range results {
		dr := o.dr
		if o.err != nil && (errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded)) && ctx.Err() != nil {
			// The run is being torn down; an interrupted domain is not
			// failed — it was never finished, and a resumed run will
			// measure it from scratch.
			continue
		}
		done++
		// A finished domain is folded from its journal entry, as a
		// resumed run folds it; only the metrics differ.
		e := store.JournalEntry{Crawl: crawl, Domain: dr.Domain, Result: dr}
		if o.err != nil {
			m.DomainErrors.Inc()
			m.Res.ObserveError(o.class)
			e.Failed, e.Class, e.Error = true, o.class.String(), truncErr(o.err)
		} else {
			m.DomainsDone.Inc()
		}
		t0 := time.Now()
		p.fold(e, &stats)
		if !e.Failed && dr.Analyzed() {
			m.observeStage("store", t0)
		}
		if jerr := p.journal(e); jerr != nil && failErr == nil {
			failErr = jerr
			cancel()
		}
		if o.err != nil {
			noteFailure(o)
		}
		if p.cfg.Progress != nil {
			p.cfg.Progress(crawl, dr.Domain, done, total)
		}
	}
	if failErr != nil {
		return stats, failErr
	}
	return stats, ctx.Err()
}

// journal records one completion entry, when a journal is configured. A
// journal write failure is fatal: continuing without crash safety would
// silently break the resume contract.
func (p *Pipeline) journal(e store.JournalEntry) error {
	if p.cfg.Journal == nil {
		return nil
	}
	if err := p.cfg.Journal.Record(e); err != nil {
		return resilience.Fatal(fmt.Errorf("crawler: journal write: %w", err))
	}
	return nil
}

// replay folds one journaled completion exactly as the live path folded
// it, and counts it as resumed.
func (p *Pipeline) replay(e store.JournalEntry, stats *SnapshotStats) {
	p.metrics.DomainsResumed.Inc()
	stats.DomainsResumed++
	p.fold(e, stats)
}

// fold adds one finished domain, as its journal entry records it, to the
// stats and, when analyzed, to the store. A failed domain's partial work
// still counts: pages measured before the fault are real measurements
// (see FailedDomain).
func (p *Pipeline) fold(e store.JournalEntry, stats *SnapshotStats) {
	dr := e.Result
	if e.Failed {
		stats.DomainsFailed++
		if stats.FailedByClass == nil {
			stats.FailedByClass = make(map[string]int)
		}
		stats.FailedByClass[e.Class]++
		fd := store.FailedDomain{Domain: e.Domain, Class: e.Class, Err: e.Error}
		if dr != nil {
			fd.PagesFound, fd.PagesAnalyzed = dr.PagesFound, dr.PagesAnalyzed
			stats.PagesFound += dr.PagesFound
			stats.PagesAnalyzed += dr.PagesAnalyzed
			stats.AbsorbFix(dr)
		}
		stats.Failed = append(stats.Failed, fd)
		return
	}
	if dr == nil {
		return
	}
	if dr.PagesFound > 0 {
		stats.Found++
	}
	if dr.Analyzed() {
		stats.Analyzed++
		p.store.Put(dr)
	}
	stats.PagesFound += dr.PagesFound
	stats.PagesAnalyzed += dr.PagesAnalyzed
	stats.AbsorbFix(dr)
}

// truncErr caps an error message for the stats ledger (a recovered
// panic carries a stack trace; the ledger only needs the head).
func truncErr(err error) string {
	const max = 512
	s := err.Error()
	if len(s) > max {
		return s[:max] + "…"
	}
	return s
}

// Summary snapshots the pipeline metrics over the given wall time; a
// convenience shim for p.Metrics().Summary(elapsed).
func (p *Pipeline) Summary(elapsed time.Duration) RunSummary {
	return p.metrics.Summary(elapsed)
}

// measureDomain runs collect → fetch → check for one domain and returns
// the aggregate. On error the returned result carries the partial work
// completed before the fault (never nil), and the error's resilience
// class is preserved through the wrapping. Cancellation is honoured
// between pages and inside retry backoffs.
func (p *Pipeline) measureDomain(ctx context.Context, crawl, domain string, rank int) (*store.DomainResult, error) {
	m := p.metrics
	dr := &store.DomainResult{
		Crawl: crawl, Domain: domain, Rank: rank,
		Violations: make(map[string]int),
		Signals:    make(map[string]int),
	}
	t0 := time.Now()
	recs, err := resilience.Do(ctx, p.policy, func() ([]*cdx.Record, error) {
		var recs []*cdx.Record
		gerr := p.guard(func() error {
			var qerr error
			recs, qerr = p.archive.Query(ctx, crawl, domain, p.cfg.PagesPerDomain)
			return qerr
		})
		return recs, gerr
	})
	m.observeStage("query", t0)
	if err != nil {
		if ctx.Err() == nil {
			m.QueryErrors.Inc() // a real failure, not run teardown
		}
		return dr, fmt.Errorf("crawler: query %s/%s: %w", crawl, domain, err)
	}
	dr.PagesFound = len(recs)
	m.PagesFound.Add(uint64(len(recs)))
	for _, rec := range recs {
		// Cancellation stops mid-domain: the bound is one in-flight
		// page, not one domain.
		if cerr := ctx.Err(); cerr != nil {
			return dr, cerr
		}
		// The index carries MIME and status; skip obvious non-pages before
		// fetching, like the paper's metadata-driven collection does.
		if rec.Status != 200 || !strings.HasPrefix(rec.MIME, "text/html") {
			m.skipped["index-filter"].Inc()
			continue
		}
		rec := rec
		t0 = time.Now()
		cap, err := resilience.Do(ctx, p.policy, func() (*commoncrawl.Capture, error) {
			var cap *commoncrawl.Capture
			gerr := p.guard(func() error {
				var ferr error
				cap, ferr = commoncrawl.FetchCapture(ctx, p.archive, rec)
				return ferr
			})
			return cap, gerr
		})
		m.observeStage("fetch", t0)
		if err != nil {
			if ctx.Err() == nil {
				m.FetchErrors.Inc()
			}
			return dr, fmt.Errorf("crawler: fetch %s: %w", rec.URL, err)
		}
		m.PagesFetched.Inc()
		m.BytesFetched.Add(uint64(rec.Length))
		if cap.Status != 200 {
			m.skipped["status"].Inc()
			continue
		}
		if !strings.HasPrefix(cap.MIME, "text/html") {
			m.skipped["mime"].Inc()
			continue
		}
		if len(cap.Body) > p.cfg.MaxDocumentBytes {
			m.skipped["oversize"].Inc()
			continue
		}
		m.DocBytes.Observe(float64(len(cap.Body)))
		t0 = time.Now()
		rep, err := p.checkPage(cap.Body)
		m.observeStage("check", t0)
		if errors.Is(err, htmlparse.ErrNotUTF8) {
			// Encoding filter (paper §4.1): only UTF-8-decodable
			// documents. The checker's decode is the test.
			m.skipped["non-utf8"].Inc()
			continue
		}
		if err != nil {
			// A checker panic on adversarial HTML is a per-page
			// failure, not a process crash: record it and move on.
			m.CheckPanics.Inc()
			m.skipped["check-panic"].Inc()
			dr.PagesFailed++
			if len(dr.PageFailures) < maxPageFailures {
				dr.PageFailures = append(dr.PageFailures,
					fmt.Sprintf("%s: %v", rec.URL, err))
			}
			continue
		}
		dr.PagesAnalyzed++
		m.PagesAnalyzed.Inc()
		for id, n := range rep.RuleHits {
			if n > 0 {
				dr.Violations[id]++
			}
		}
		addSignals(dr.Signals, rep.Signals)
		if p.cfg.Fix {
			t0 = time.Now()
			p.fixPage(cap.Body, dr)
			m.observeStage("fix", t0)
		}
	}
	return dr, nil
}

// fixPage runs the validated repair engine over one analyzed page and
// folds the outcome into the domain aggregate. Like checkPage, a panic
// on adversarial HTML costs one page — it is recorded as unfixable,
// never crashes the run.
func (p *Pipeline) fixPage(body []byte, dr *store.DomainResult) {
	outcome, applied := repairOutcome(body)
	if dr.FixOutcomes == nil {
		dr.FixOutcomes = make(map[string]int)
	}
	dr.FixOutcomes[outcome]++
	p.metrics.FixPages[outcome].Inc()
	for _, f := range applied {
		if dr.FixesApplied == nil {
			dr.FixesApplied = make(map[string]int)
		}
		dr.FixesApplied[f.RuleID]++
	}
}

// repairOutcome classifies one page's machine repairability. An
// operational repair error or a recovered panic counts as unfixable:
// either way no verified repair exists for the page.
func repairOutcome(body []byte) (outcome string, applied []autofix.Fix) {
	defer func() {
		if recover() != nil {
			outcome, applied = string(autofix.OutcomeUnfixable), nil
		}
	}()
	r, err := autofix.Repair(body)
	if err != nil {
		return string(autofix.OutcomeUnfixable), nil
	}
	return string(r.Outcome()), r.Applied
}

// maxPageFailures caps the per-domain failure sample kept in the store;
// DomainResult.PagesFailed keeps the true count.
const maxPageFailures = 8

// pagePanicError is a recovered checker panic, carrying the stack.
type pagePanicError struct {
	value any
	stack []byte
}

func (e *pagePanicError) Error() string {
	return fmt.Sprintf("checker panic: %v\n%s", e.value, e.stack)
}

// checkPage runs the checker with panic recovery: a panicking rule on
// adversarial HTML must cost one page, not the whole multi-day run.
func (p *Pipeline) checkPage(body []byte) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8<<10)
			buf = buf[:runtime.Stack(buf, false)]
			rep, err = nil, &pagePanicError{value: r, stack: buf}
		}
	}()
	return p.checker.Check(body)
}

func addSignals(m map[string]int, s core.Signals) {
	if s.NewlineInURL {
		m[store.SignalNewlineURL]++
	}
	if s.NewlineAndLtInURL {
		m[store.SignalNewlineLtURL]++
	}
	if s.ScriptInAttribute {
		m[store.SignalScriptInAttr]++
	}
	if s.NonceScriptAffected {
		m[store.SignalNonceAffected]++
	}
	if s.UsesMath {
		m[store.SignalUsesMath]++
	}
	if s.UsesSVG {
		m[store.SignalUsesSVG]++
	}
}
