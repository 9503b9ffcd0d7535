package hvscan_test

// The benchmark harness: one benchmark per table and figure of the paper
// (see DESIGN.md §5 for the experiment index), plus ablations of the
// design choices called out there. Each experiment benchmark reports the
// headline measured percentages as custom metrics next to the paper's
// value, so `go test -bench .` doubles as the reproduction run:
//
//	pct2015   measured percentage in the first snapshot
//	paper2015 the paper's published value
//
// The shared fixture runs the full measurement pipeline once over the
// synthetic eight-snapshot archive.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hvscan/hvscan/internal/analysis"
	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/crawler"
	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/obs"
	"github.com/hvscan/hvscan/internal/prestudy"
	"github.com/hvscan/hvscan/internal/report"
	"github.com/hvscan/hvscan/internal/sanitizer"
	"github.com/hvscan/hvscan/internal/store"
)

type fixtureData struct {
	archive *commoncrawl.SyntheticArchive
	store   *store.Store
	stats   []store.CrawlStats
	an      *analysis.Analyzer
	err     error
}

var (
	fixtureOnce sync.Once
	fx          fixtureData
)

// fixture lazily runs the eight-snapshot study at benchmark scale.
func fixture(b *testing.B) *fixtureData {
	b.Helper()
	fixtureOnce.Do(func() {
		g := corpus.New(corpus.Config{Seed: 22, Domains: 800, MaxPages: 5})
		fx.archive = commoncrawl.NewSynthetic(g)
		fx.store = store.New()
		pipe := crawler.New(fx.archive, core.NewChecker(), fx.store, crawler.Config{PagesPerDomain: 5})
		for _, crawl := range fx.archive.Crawls() {
			s, err := pipe.RunSnapshot(context.Background(), crawl, g.Universe())
			if err != nil {
				fx.err = err
				return
			}
			fx.stats = append(fx.stats, s)
		}
		fx.an = analysis.New(fx.store)
	})
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	return &fx
}

// samplePages returns a deterministic set of corpus pages for micro
// benchmarks.
func samplePages(n int) [][]byte {
	g := corpus.New(corpus.Config{Seed: 7, Domains: 64, MaxPages: 4})
	var pages [][]byte
	for _, d := range g.Universe() {
		for i := 0; i < 3 && len(pages) < n; i++ {
			pages = append(pages, g.PageHTML(d, corpus.Snapshots[3], i))
		}
		if len(pages) >= n {
			break
		}
	}
	return pages
}

// ---- Tables ----

func BenchmarkTable1Catalogue(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table1()
	}
	if !strings.Contains(s, "FB2") {
		b.Fatal("catalogue incomplete")
	}
}

func BenchmarkTable2Snapshots(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	var rows []analysis.Table2Row
	for i := 0; i < b.N; i++ {
		rows = analysis.Table2(f.stats)
	}
	b.ReportMetric(rows[0].SuccessPct, "succ2015_pct")
	b.ReportMetric(analysis.PaperTable2[0].SuccessPct, "paper_succ2015_pct")
	b.ReportMetric(rows[7].AvgPages/float64(5)*100, "avgpages2022_pctcap")
	b.ReportMetric(analysis.PaperTable2[7].AvgPages, "paper_avgpages2022_of100")
}

// ---- Figures ----

func BenchmarkFigure8Distribution(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	var dist map[string]analysis.YearlyPoint
	for i := 0; i < b.N; i++ {
		_, dist = f.an.Distribution()
	}
	b.ReportMetric(dist["FB2"].Pct, "fb2_union_pct")
	b.ReportMetric(analysis.PaperFigure8["FB2"], "paper_fb2_union_pct")
	b.ReportMetric(dist["HF4"].Pct, "hf4_union_pct")
	b.ReportMetric(analysis.PaperFigure8["HF4"], "paper_hf4_union_pct")
}

func BenchmarkFigure9Trend(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	var series []analysis.YearlyPoint
	for i := 0; i < b.N; i++ {
		series = f.an.YearlyViolating()
	}
	b.ReportMetric(series[0].Pct, "pct2015")
	b.ReportMetric(analysis.PaperFigure9[0], "paper2015")
	b.ReportMetric(series[7].Pct, "pct2022")
	b.ReportMetric(analysis.PaperFigure9[7], "paper2022")
}

func BenchmarkFigure10Groups(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	var trends map[core.Group][]analysis.YearlyPoint
	for i := 0; i < b.N; i++ {
		trends = f.an.GroupTrends()
	}
	b.ReportMetric(trends[core.FilterBypass][0].Pct, "fb2015_pct")
	b.ReportMetric(analysis.PaperFigure10["FB"][0], "paper_fb2015_pct")
	b.ReportMetric(trends[core.HTMLFormatting][7].Pct, "hf2022_pct")
	b.ReportMetric(analysis.PaperFigure10["HF"][1], "paper_hf2022_pct")
}

// appendixBench benchmarks one of Figures 16–21 and reports the first
// listed rule's endpoints.
func appendixBench(b *testing.B, figure string) {
	b.Helper()
	f := fixture(b)
	var rules []string
	for _, af := range analysis.AppendixFigures {
		if af.Figure == figure {
			rules = af.Rules
		}
	}
	b.ResetTimer()
	var trends map[string][]analysis.YearlyPoint
	for i := 0; i < b.N; i++ {
		trends = f.an.RuleTrends(rules...)
	}
	lead := rules[0]
	b.ReportMetric(trends[lead][0].Pct, lead+"_2015_pct")
	b.ReportMetric(analysis.PaperRuleTrends[lead][0], "paper_"+lead+"_2015_pct")
	b.ReportMetric(trends[lead][7].Pct, lead+"_2022_pct")
	b.ReportMetric(analysis.PaperRuleTrends[lead][7], "paper_"+lead+"_2022_pct")
}

func BenchmarkFigure16FilterBypass(b *testing.B)     { appendixBench(b, "16") }
func BenchmarkFigure17Formatting1(b *testing.B)      { appendixBench(b, "17") }
func BenchmarkFigure18Formatting2(b *testing.B)      { appendixBench(b, "18") }
func BenchmarkFigure19DataManipulation(b *testing.B) { appendixBench(b, "19") }
func BenchmarkFigure20Exfiltration1(b *testing.B)    { appendixBench(b, "20") }
func BenchmarkFigure21Exfiltration2(b *testing.B)    { appendixBench(b, "21") }

// ---- In-text statistics ----

func BenchmarkSection42Union(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	var u analysis.YearlyPoint
	for i := 0; i < b.N; i++ {
		u = f.an.UnionViolating()
	}
	b.ReportMetric(u.Pct, "union_pct")
	b.ReportMetric(analysis.PaperUnionViolatingPct, "paper_union_pct")
}

func BenchmarkSection44Fixability(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	var fix analysis.Fixability
	for i := 0; i < b.N; i++ {
		fix = f.an.FixabilityFor(f.an.LatestCrawl())
	}
	b.ReportMetric(fix.FixableOfViolPct, "fixable_of_violating_pct")
	b.ReportMetric(analysis.PaperFixableOfViolatingPct, "paper_fixable_pct")
	b.ReportMetric(fix.RemainingPct, "remaining_pct")
	b.ReportMetric(analysis.PaperRemainingAfterFixPct, "paper_remaining_pct")
}

func BenchmarkSection45Mitigations(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	var ms []analysis.MitigationStats
	for i := 0; i < b.N; i++ {
		ms = f.an.Mitigations()
	}
	b.ReportMetric(ms[0].NewlineURL.Pct, "newline_url_2015_pct")
	b.ReportMetric(analysis.PaperNewlineURL2015Pct, "paper_newline_url_2015_pct")
	b.ReportMetric(ms[7].NewlineLtURL.Pct, "newline_lt_2022_pct")
	b.ReportMetric(analysis.PaperNewlineLt2022Pct, "paper_newline_lt_2022_pct")
}

// ---- Figure 1 / background ----

// BenchmarkFigure1MutationXSS measures the full sanitize → re-parse chain
// of the DOMPurify bypass and asserts the mutation still arms.
func BenchmarkFigure1MutationXSS(b *testing.B) {
	payload := `<math><mtext><table><mglyph><style><!--</style><img title="--&gt;&lt;img src=1 onerror=alert(1)&gt;">`
	s := sanitizer.New(nil)
	armed := false
	for i := 0; i < b.N; i++ {
		clean, err := s.Sanitize(payload)
		if err != nil {
			b.Fatal(err)
		}
		res, err := htmlparse.ParseFragment([]byte(clean), "div")
		if err != nil {
			b.Fatal(err)
		}
		armed = res.Doc.Find(func(n *htmlparse.Node) bool {
			_, ok := n.LookupAttr("onerror")
			return n.Type == htmlparse.ElementNode && ok
		}) != nil
	}
	if !armed {
		b.Fatal("bypass did not arm")
	}
}

// ---- Parser and pipeline micro benchmarks ----

func BenchmarkParseDocument(b *testing.B) {
	pages := samplePages(32)
	var bytes int
	for _, p := range pages {
		bytes += len(p)
	}
	b.SetBytes(int64(bytes / len(pages)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htmlparse.Parse(pages[i%len(pages)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckDocument(b *testing.B) {
	pages := samplePages(32)
	checker := core.NewChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Check(pages[i%len(pages)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutofixRepair(b *testing.B) {
	pages := samplePages(32)
	for i := 0; i < b.N; i++ {
		if _, err := autofix.Repair(pages[i%len(pages)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkAblationSharedParse: all twenty rules over one parse …
func BenchmarkAblationSharedParse(b *testing.B) {
	pages := samplePages(16)
	checker := core.NewChecker()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Check(pages[i%len(pages)]); err != nil {
			b.Fatal(err)
		}
	}
}

// … versus BenchmarkAblationPerRuleParse: re-parsing for every rule, the
// naive framework design the shared parse avoids.
func BenchmarkAblationPerRuleParse(b *testing.B) {
	pages := samplePages(16)
	var checkers []*core.Checker
	for _, r := range core.RuleIDs() {
		checkers = append(checkers, core.NewChecker(r))
	}
	for i := 0; i < b.N; i++ {
		for _, c := range checkers {
			if _, err := c.Check(pages[i%len(pages)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationWarcVsSynthetic: materializing pages through the WARC
// blob + HTTP-block decode versus straight generation, quantifying what
// the archive layer costs.
func BenchmarkAblationWarcRoundTrip(b *testing.B) {
	g := corpus.New(corpus.Config{Seed: 7, Domains: 32, MaxPages: 4})
	arch := commoncrawl.NewSynthetic(g)
	crawl := arch.Crawls()[3]
	domains := g.Universe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := domains[i%len(domains)]
		recs, err := arch.Query(context.Background(), crawl, d, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := commoncrawl.FetchCapture(context.Background(), arch, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblationSyntheticDirect(b *testing.B) {
	g := corpus.New(corpus.Config{Seed: 7, Domains: 32, MaxPages: 4})
	domains := g.Universe()
	snap := corpus.Snapshots[3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := domains[i%len(domains)]
		n := g.PageCount(d, snap)
		for p := 0; p < n && p < 2; p++ {
			_, _, body := g.PageHTTP(d, snap, p)
			_ = body
		}
	}
}

// BenchmarkAblationPipelineWidth sweeps the worker pool size over one
// snapshot (the paper's single-machine throughput is ~1,000 pages/min;
// report pages/sec to compare).
func benchmarkPipelineWidth(b *testing.B, workers int) {
	g := corpus.New(corpus.Config{Seed: 7, Domains: 200, MaxPages: 3})
	arch := commoncrawl.NewSynthetic(g)
	domains := g.Universe()
	crawl := arch.Crawls()[0]
	b.ResetTimer()
	var pages int
	for i := 0; i < b.N; i++ {
		st := store.New()
		pipe := crawler.New(arch, core.NewChecker(), st, crawler.Config{
			Workers: workers, PagesPerDomain: 3,
		})
		stats, err := pipe.RunSnapshot(context.Background(), crawl, domains)
		if err != nil {
			b.Fatal(err)
		}
		pages += stats.PagesAnalyzed
	}
	b.ReportMetric(float64(pages)/b.Elapsed().Seconds(), "pages/sec")
}

func BenchmarkAblationPipelineWidth1(b *testing.B)  { benchmarkPipelineWidth(b, 1) }
func BenchmarkAblationPipelineWidth4(b *testing.B)  { benchmarkPipelineWidth(b, 4) }
func BenchmarkAblationPipelineWidth16(b *testing.B) { benchmarkPipelineWidth(b, 16) }

// ---- Observability (internal/obs) ----

// BenchmarkPipelineInstrumented runs one snapshot with the full metrics
// stack (pipeline stages + per-rule counters + archive outcomes) and
// reports throughput and the check-stage tail from the metrics themselves
// — the numbers `hvcrawl` prints in its run summary.
func BenchmarkPipelineInstrumented(b *testing.B) {
	g := corpus.New(corpus.Config{Seed: 7, Domains: 200, MaxPages: 3})
	arch := commoncrawl.NewSynthetic(g)
	domains := g.Universe()
	crawl := arch.Crawls()[0]
	b.ResetTimer()
	var summary crawler.RunSummary
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		pipe := crawler.New(commoncrawl.Instrument(arch, reg),
			core.NewChecker().Instrument(reg), store.New().Instrument(reg),
			crawler.Config{PagesPerDomain: 3, Registry: reg})
		start := time.Now()
		if _, err := pipe.RunSnapshot(context.Background(), crawl, domains); err != nil {
			b.Fatal(err)
		}
		summary = pipe.Summary(time.Since(start))
	}
	b.ReportMetric(summary.PagesPerSec, "pages/sec")
	for _, st := range summary.Stages {
		if st.Stage == "check" {
			b.ReportMetric(st.P95ms, "check_p95_ms")
		}
	}
}

// BenchmarkAblationCheckInstrumented quantifies the metrics overhead on
// the hottest path: the same check loop as BenchmarkCheckDocument, with
// per-rule counters enabled. The delta should be nanoseconds per page.
func BenchmarkAblationCheckInstrumented(b *testing.B) {
	pages := samplePages(32)
	checker := core.NewChecker().Instrument(obs.NewRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Check(pages[i%len(pages)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramObserve is the cost of one metric observation — the
// unit the pipeline pays four times per page.
func BenchmarkHistogramObserve(b *testing.B) {
	h := obs.NewHistogram(obs.DurationBuckets)
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v *= 1.7
			if v > 20 {
				v = 0.0001
			}
		}
	})
	if h.Count() == 0 {
		b.Fatal("no observations")
	}
}

// ---- Discussion-section reproductions (§5.1–§5.3) ----

// BenchmarkSection51DynamicContent runs the dynamic-content pre-study over
// the top sites (the paper's live-crawl substitute).
func BenchmarkSection51DynamicContent(b *testing.B) {
	g := corpus.New(corpus.Config{Seed: 22, Domains: 400, MaxPages: 2})
	var res *prestudy.DynamicResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = prestudy.RunDynamic(g, corpus.Snapshots[6], 400)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ViolatingPct, "dynamic_violating_pct")
	b.ReportMetric(60, "paper_lower_bound_pct")
}

// BenchmarkSection52Generalization compares the ranking's top and tail.
func BenchmarkSection52Generalization(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	var g analysis.Generalization
	for i := 0; i < b.N; i++ {
		g = f.an.GeneralizationFor(f.an.LatestCrawl())
	}
	b.ReportMetric(g.Top.AvgViolations, "top_avg_violations")
	b.ReportMetric(g.Tail.AvgViolations, "tail_avg_violations")
}

// BenchmarkSection53DeprecationPlan projects the staged enforcement.
func BenchmarkSection53DeprecationPlan(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	var plan []analysis.DeprecationStage
	for i := 0; i < b.N; i++ {
		plan = f.an.DeprecationPlan(1.0, 25)
	}
	if len(plan) == 0 {
		b.Fatal("empty plan")
	}
	// The first stage must contain immediately-enforceable (already rare)
	// rules, as the paper proposes.
	first := plan[0]
	if first.Year == -1 || len(first.Rules) == 0 {
		b.Fatalf("no immediately enforceable rules: %+v", plan)
	}
	b.ReportMetric(float64(len(first.Rules)), "stage1_rules")
}

// BenchmarkParseLargeDocument: throughput on a ~0.5 MB page assembled from
// corpus content (Common Crawl truncates records at 1 MB; this is the top
// of the realistic size range).
func BenchmarkParseLargeDocument(b *testing.B) {
	pages := samplePages(64)
	var large []byte
	large = append(large, "<!DOCTYPE html><html><head><title>big</title></head><body>"...)
	for i := 0; len(large) < 512<<10; i++ {
		p := pages[i%len(pages)]
		// Strip the per-page skeleton; keep body-ish content only.
		large = append(large, p...)
	}
	large = append(large, "</body></html>"...)
	b.SetBytes(int64(len(large)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htmlparse.Parse(large); err != nil {
			b.Fatal(err)
		}
	}
}
