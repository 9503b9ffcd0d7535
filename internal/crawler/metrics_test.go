package crawler

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/obs"
	"github.com/hvscan/hvscan/internal/store"
)

// TestPipelineMetricsAccountForPages is the acceptance check of the
// observability layer: every page the run reports must be traceable
// through the stage counters, and the stage counters must reconcile with
// each other.
func TestPipelineMetricsAccountForPages(t *testing.T) {
	arch := testArchive(120, 4)
	reg := obs.NewRegistry()
	checker := core.NewChecker().Instrument(reg)
	st := store.New().Instrument(reg)
	p := New(commoncrawl.Instrument(arch, reg), checker, st, Config{
		Workers: 4, PagesPerDomain: 4, Registry: reg,
	})
	domains := arch.Generator().Universe()
	crawl := arch.Crawls()[0]
	start := time.Now()
	stats, err := p.RunSnapshot(context.Background(), crawl, domains)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Metrics()

	// Outer accounting: one query per domain, all domains finished.
	if got := m.Stage("query").Count(); got != uint64(len(domains)) {
		t.Errorf("query count = %d, want %d", got, len(domains))
	}
	if got := m.DomainsStarted.Value(); got != uint64(len(domains)) {
		t.Errorf("domains started = %d, want %d", got, len(domains))
	}
	if got := m.DomainsDone.Value(); got != uint64(len(domains)) {
		t.Errorf("domains done = %d, want %d", got, len(domains))
	}
	if got := m.InFlight.Value(); got != 0 {
		t.Errorf("in-flight after run = %d, want 0", got)
	}

	// Page accounting: counters must equal the run's reported stats, and
	// every fetched page is either skipped (for exactly one reason) or
	// analyzed.
	if got := m.PagesFound.Value(); got != uint64(stats.PagesFound) {
		t.Errorf("pages found counter = %d, stats %d", got, stats.PagesFound)
	}
	if got := m.PagesAnalyzed.Value(); got != uint64(stats.PagesAnalyzed) {
		t.Errorf("pages analyzed counter = %d, stats %d", got, stats.PagesAnalyzed)
	}
	if stats.PagesAnalyzed == 0 {
		t.Fatal("nothing analyzed — accounting test is vacuous")
	}
	if found, fetched, idx := m.PagesFound.Value(), m.PagesFetched.Value(),
		m.Skipped("index-filter").Value(); found != fetched+idx {
		t.Errorf("found %d != fetched %d + index-filtered %d", found, fetched, idx)
	}
	skippedAfterFetch := m.PagesSkipped() - m.Skipped("index-filter").Value()
	if fetched, analyzed := m.PagesFetched.Value(), m.PagesAnalyzed.Value(); fetched != analyzed+skippedAfterFetch {
		t.Errorf("fetched %d != analyzed %d + skipped %d", fetched, analyzed, skippedAfterFetch)
	}

	// Stage reconciliation: the check stage saw at least every analyzed
	// page; the store stage ran once per analyzed domain; fetch latencies
	// were recorded for every fetched page.
	if got := m.Stage("check").Count(); got < m.PagesAnalyzed.Value() {
		t.Errorf("check count = %d < analyzed %d", got, m.PagesAnalyzed.Value())
	}
	if got := m.Stage("fetch").Count(); got != m.PagesFetched.Value() {
		t.Errorf("fetch latency count = %d, want %d", got, m.PagesFetched.Value())
	}
	if got := m.Stage("store").Count(); got != uint64(stats.Analyzed) {
		t.Errorf("store count = %d, want %d analyzed domains", got, stats.Analyzed)
	}
	if m.BytesFetched.Value() == 0 {
		t.Error("bytes fetched = 0")
	}
	if got, want := m.DocBytes.Count(), m.Stage("check").Count(); got != want {
		t.Errorf("doc size observations = %d, want %d", got, want)
	}

	// The instrumented checker and archive share the registry and must
	// agree with the pipeline's own counts. The check stage also times
	// the pages the checker rejects as non-UTF-8, which it does not
	// count as checked.
	if got, nonUTF8, want := reg.Counter("core_pages_checked_total").Value(), m.Skipped("non-utf8").Value(), m.Stage("check").Count(); got+nonUTF8 != want {
		t.Errorf("checker pages = %d + non-UTF-8 %d, pipeline check count = %d", got, nonUTF8, want)
	}
	if got, want := reg.Counter(`commoncrawl_queries_total{outcome="ok"}`).Value(),
		uint64(len(domains)); got != want {
		t.Errorf("archive queries ok = %d, want %d", got, want)
	}
	if got, want := reg.Counter("store_puts_total").Value(), uint64(stats.Analyzed); got != want {
		t.Errorf("store puts = %d, want %d", got, want)
	}

	// The end-of-run summary: throughput present, quantiles ordered.
	sum := p.Summary(time.Since(start))
	if sum.PagesAnalyzed != uint64(stats.PagesAnalyzed) || sum.PagesPerSec <= 0 {
		t.Errorf("summary pages=%d rate=%.1f, want pages=%d rate>0",
			sum.PagesAnalyzed, sum.PagesPerSec, stats.PagesAnalyzed)
	}
	if len(sum.Stages) != len(Stages) {
		t.Fatalf("summary stages = %d, want %d", len(sum.Stages), len(Stages))
	}
	for _, st := range sum.Stages {
		if st.P50ms > st.P95ms || st.P95ms > st.P99ms {
			t.Errorf("%s quantiles out of order: p50=%.3f p95=%.3f p99=%.3f",
				st.Stage, st.P50ms, st.P95ms, st.P99ms)
		}
		if st.Count > 0 && st.P99ms <= 0 {
			t.Errorf("%s: %d observations but p99=0", st.Stage, st.Count)
		}
	}
	if !strings.Contains(sum.String(), "pages/sec") {
		t.Errorf("summary text lacks throughput: %q", sum.String())
	}
}

// TestMetricsExposition drives the whole acceptance path: run a small
// crawl, serve the registry on an ephemeral port, and read non-zero stage
// counters back over HTTP — what `hvcrawl -metrics :0` does.
func TestMetricsExposition(t *testing.T) {
	arch := testArchive(40, 3)
	reg := obs.NewRegistry()
	p := New(arch, core.NewChecker().Instrument(reg), store.New(), Config{
		Workers: 4, PagesPerDomain: 3, Registry: reg,
	})
	if _, err := p.RunSnapshot(context.Background(), arch.Crawls()[0], arch.Generator().Universe()); err != nil {
		t.Fatal(err)
	}
	srv, err := obs.StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`crawler_stage_seconds_count{stage="query"}`,
		`crawler_stage_seconds_count{stage="check"}`,
		"crawler_pages_analyzed_total",
		`core_rule_hits_total{rule=`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The stage counters must be non-zero after a run.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `crawler_stage_seconds_count{stage="query"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("query stage counter is zero: %q", line)
			}
		}
	}
	if strings.Contains(out, "crawler_pages_analyzed_total 0\n") {
		t.Error("pages analyzed counter is zero after a run")
	}
}

// TestNoRetriesSentinel pins the Config.Retries contract: zero means the
// default of two retries, the NoRetries sentinel really disables them —
// callers no longer need to read the source to turn retrying off.
func TestNoRetriesSentinel(t *testing.T) {
	arch := testArchive(20, 2)
	crawl := arch.Crawls()[0]
	domains := arch.Generator().Universe()

	// Default (Retries left zero): transient faults are absorbed and the
	// retry counter shows it.
	flaky := newFlaky(arch)
	p := New(flaky, core.NewChecker(), store.New(), Config{
		Workers: 2, PagesPerDomain: 2, RetryDelay: NoDelay,
	})
	if _, err := p.RunSnapshot(context.Background(), crawl, domains); err != nil {
		t.Fatalf("default retries did not absorb transient faults: %v", err)
	}
	if got := p.Metrics().Retries.Value(); got == 0 {
		t.Error("default config: retry counter = 0, want > 0")
	}

	// NoRetries: the same fault profile surfaces as an error and nothing
	// is retried.
	flaky2 := newFlaky(arch)
	p2 := New(flaky2, core.NewChecker(), store.New(), Config{
		Workers: 2, PagesPerDomain: 2, RetryDelay: NoDelay, Retries: NoRetries,
	})
	if _, err := p2.RunSnapshot(context.Background(), crawl, domains); err == nil {
		t.Fatal("NoRetries absorbed a fault — retries ran anyway")
	}
	if got := p2.Metrics().Retries.Value(); got != 0 {
		t.Errorf("NoRetries: retry counter = %d, want 0", got)
	}
}
