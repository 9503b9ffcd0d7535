package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hvscan/hvscan/internal/crawler"
)

// The study workload: the paper's own job. Eight snapshots crawled from
// the on-disk archive with the full catalogue, no repair, one worker per
// CPU, then store.Save → store.Load → report.All. One pass takes about two
// seconds, so a run times whole passes until its window is over and
// reports their median.

// minPasses is the fewest timed passes a run takes, however short its
// window.
const minPasses = 3

type studyRun struct {
	env     *runEnv
	dir     string
	truth   studyTruth
	setup   *studySetup
	checker crawler.Checker
	report  string // the first pass's report text
	res     *result
}

// passStats is one timed pass.
type passStats struct {
	out       *crawlOutput
	wall, cpu time.Duration
	ran       time.Duration // wall time net of the CPU time the host stole
	rss       float64       // peak resident set during the pass, MiB
	latencies []float64     // ms per domain with analyzable pages
	bytes     int64         // record bytes read, traced passes only
}

func (p passStats) pages() int { return p.out.pagesAnalyzed() }

func runStudy(e *runEnv) (*result, error) {
	dir, err := fixtureDir(e.cache, "study", e.seed, genStudy)
	if err != nil {
		return nil, err
	}
	return studyAt(e, dir, nil)
}

// studyAt runs the study workload on the fixture in dir. wrap, when not
// nil, wraps the checker the crawler calls (the output checks' tests use
// it to inject a fault).
func studyAt(e *runEnv, dir string, wrap func(crawler.Checker) crawler.Checker) (*result, error) {
	s := &studyRun{env: e, dir: dir, res: &result{metrics: map[string]float64{}}}
	if err := readJSON(filepath.Join(dir, "truth.json"), &s.truth); err != nil {
		return nil, err
	}
	if err := warmFiles(dir); err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s.setup != nil {
			s.setup.Close()
		}
		t0 := time.Now()
		st, err := openStudy(dir)
		if err != nil {
			return nil, err
		}
		newPipeline(st.archive, st.checker, nil)
		setups = append(setups, time.Since(t0).Seconds())
		s.setup = st
	}
	defer s.setup.Close()
	s.checker = s.setup.checker
	if wrap != nil {
		s.checker = wrap(s.checker)
	}
	ctx := context.Background()

	if _, err := s.pass(ctx, nil); err != nil { // warm-up
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	passes, err := s.timedPasses(ctx, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m := s.res.metrics
	var rates, wallRates, costs, p50s, rss []float64
	pages, lat := 0, 0
	for _, p := range passes {
		rates = append(rates, float64(p.pages())/p.ran.Seconds())
		wallRates = append(wallRates, float64(p.pages())/p.wall.Seconds())
		costs = append(costs, us(p.cpu)/float64(p.pages()))
		lat += len(p.latencies)
		p50s = append(p50s, median(p.latencies))
		rss = append(rss, p.rss)
		pages += p.pages()
	}
	m["setup_s"] = median(setups)
	m["pages_per_s"] = steadyRate(rates)
	m["cpu_us_per_page"] = steadyCost(costs)
	m["peak_rss_mib"] = steadyCost(rss)
	fmt.Fprintf(e.out, "study: %d timed passes, %d pages, %d domain latencies, %d set-ups; %.1f pages per wall-clock second with steal\n",
		len(passes), pages, lat, len(setups), steadyRate(wallRates))
	if e.trace {
		m["crawler.domain_p50_ms"] = steadyCost(p50s)
		m["runtime.gc_per_kpage"] = float64(ms1.NumGC-ms0.NumGC) / float64(pages) * 1000
		if err := s.traced(ctx, passes); err != nil {
			return nil, err
		}
	}
	m["success_ratio"] = 1 - float64(s.res.failed)/float64(s.res.attempted)
	printMetrics(e.out, "study end-to-end:", endToEnd, m)
	return s.res, nil
}

// timedPasses runs whole passes until the window is over.
func (s *studyRun) timedPasses(ctx context.Context, rec *recorder) ([]passStats, error) {
	var out []passStats
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < s.env.window {
		p, err := s.pass(ctx, rec)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (s *studyRun) pass(ctx context.Context, rec *recorder) (passStats, error) {
	probe := newCrawlProbe(s.setup.archive, s.checker, rec)
	pipe := newPipeline(probe, probe.pipelineChecker(), probe.progress)
	path := filepath.Join(s.env.work, "results.jsonl")
	if err := resetPeakRSS(0); err != nil {
		return passStats{}, err
	}
	h0, err := readHostTimes()
	if err != nil {
		return passStats{}, err
	}
	cpu0, t0 := selfCPU(), time.Now()
	out, err := crawlPass(ctx, pipe, s.setup.crawls, s.setup.dataset, path)
	if err != nil {
		return passStats{}, err
	}
	p := passStats{out: out, wall: time.Since(t0), cpu: selfCPU() - cpu0, bytes: probe.bytes}
	h1, err := readHostTimes()
	if err != nil {
		return passStats{}, err
	}
	p.ran = time.Duration(float64(p.wall) * unstolen(h0, h1))
	if p.rss, err = peakRSSMiB(0); err != nil {
		return passStats{}, err
	}
	for _, l := range probe.drain() {
		if t := s.truth[l.crawl][l.domain]; t != nil && t.Pages > 0 {
			p.latencies = append(p.latencies, ms(l.d))
		}
	}
	return p, s.verify(out)
}

// verify checks one pass's output against the generator's ground truth
// and the first pass's report, counting every page whose findings
// disagree as failed.
func (s *studyRun) verify(o *crawlOutput) error {
	r := s.res
	for _, err := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: snapshot stopped early:", err)
	}
	for _, crawl := range s.setup.crawls {
		for _, d := range s.setup.dataset {
			t := s.truth[crawl][d]
			if t == nil {
				return fmt.Errorf("no ground truth for %s %s", crawl, d)
			}
			r.attempted += t.Pages
			pages, v := o.domain(crawl, d)
			if pages != t.Pages {
				r.fail(abs(pages-t.Pages), "%s %s: %d pages analyzed, %d analyzable", crawl, d, pages, t.Pages)
			}
			for rule, n := range v {
				if n > t.Max[rule] {
					r.fail(n-t.Max[rule], "%s %s: %s on %d pages, at most %d explained", crawl, d, rule, n, t.Max[rule])
				}
			}
			for rule, n := range t.Min {
				if v[rule] < n {
					r.fail(n-v[rule], "%s %s: %s on %d pages, planted on %d", crawl, d, rule, v[rule], n)
				}
			}
		}
	}
	if s.report == "" {
		s.report = o.report
		return s.checkReportAcrossRuns(o.report)
	}
	if o.report != s.report {
		r.fail(1, "report.All text differs between passes")
	}
	return nil
}

// checkReportAcrossRuns compares the report with the one the first run of
// this seed recorded next to the fixture.
func (s *studyRun) checkReportAcrossRuns(report string) error {
	sum := sha256.Sum256([]byte(report))
	got := hex.EncodeToString(sum[:])
	path := filepath.Join(s.dir, "report.sha256")
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(got), 0o644)
	}
	if err != nil {
		return err
	}
	if string(want) != got {
		s.res.fail(1, "report.All text differs from an earlier run of seed %d", s.env.seed)
	}
	return nil
}

// traced runs the traced passes and the replays, and fills the per-layer
// metrics.
func (s *studyRun) traced(ctx context.Context, untraced []passStats) error {
	m := s.res.metrics
	rec := newRecorder()
	passes, err := s.timedPasses(ctx, rec)
	if err != nil {
		return err
	}
	stats := summarize(rec.snapshot())
	pages, bytes := 0, int64(0)
	var wall time.Duration
	var costs []float64
	for _, p := range passes {
		pages += p.pages()
		bytes += p.bytes
		wall += p.wall
		costs = append(costs, us(p.cpu)/float64(p.pages()))
		m["crawler.retries"] += float64(p.out.retries)
	}
	var save, render []float64
	for _, p := range untraced {
		save = append(save, ms(p.out.save))
		render = append(render, ms(p.out.render))
	}
	total := func(name string) float64 {
		if st := stats[name]; st != nil {
			return float64(st.total) / 1e3
		}
		return 0
	}
	queries := 0
	if st := stats["commoncrawl.query"]; st != nil {
		queries = st.n
	}
	m["commoncrawl.query_us"] = total("commoncrawl.query") / float64(max(1, queries))
	m["commoncrawl.read_us"] = total("commoncrawl.read") / float64(pages)
	m["commoncrawl.read_kb"] = float64(bytes) / 1024 / float64(pages)
	checkUS := total("core.check") / float64(pages)
	m["crawler.busy_ratio"] = (total("commoncrawl.query") + total("commoncrawl.read") + total("core.check")) /
		(float64(runtime.NumCPU()) * us(wall))
	m["store.save_ms"] = mean(save)
	m["report.render_ms"] = mean(render)
	m["trace.overhead_us"] = steadyCost(costs) - m["cpu_us_per_page"]

	bodies, decode, err := s.replayArchive(ctx)
	if err != nil {
		return err
	}
	m["warc.decode_us"] = decode
	if err := replayParse(s.env.out, s.setup.checker, bodies, m); err != nil {
		return err
	}
	m["crawler.residual_us"] = m["cpu_us_per_page"] - m["commoncrawl.read_us"] - decode - checkUS
	s.res.loads = []string{"htmlparse", "core", "commoncrawl", "warc", "crawler", "store", "report", "runtime", "trace"}

	w := s.env.out
	fmt.Fprintf(w, "study traced: %d passes, %d pages\n", len(passes), pages)
	printSpanTable(w, stats)
	fmt.Fprintf(w, "check inside the crawler: %.2f us/page (replayed alone: %.2f)\n", checkUS, m["core.check_us"])
	fmt.Fprintf(w, "residual: cpu_us_per_page %.2f - read %.2f - decode %.2f - check %.2f = %.2f us/page\n",
		m["cpu_us_per_page"], m["commoncrawl.read_us"], decode, checkUS, m["crawler.residual_us"])
	fmt.Fprintf(w, "tracing overhead: %.2f us/page (traced %.2f, untraced %.2f cpu_us_per_page)\n",
		m["trace.overhead_us"], steadyCost(costs), m["cpu_us_per_page"])
	printMetrics(w, "study per-layer (not loaded here: autofix, serve, loadgen):", perLayer, m)
	return nil
}

// replayStride: every replayStride-th dataset domain into the
// replays.
const replayStride = 6

// replayArchive fetches a sample of the archive's records again, timing
// the raw read and the full fetch, and returns the analyzable bodies and
// the mean decode time (fetch minus read) per record.
func (s *studyRun) replayArchive(ctx context.Context) ([][]byte, float64, error) {
	var bodies [][]byte
	var decode []float64
	for _, crawl := range s.setup.crawls {
		for i := 0; i < len(s.setup.dataset); i += replayStride {
			recs, err := queryRecords(ctx, s.setup.archive, crawl, s.setup.dataset[i])
			if err != nil {
				return nil, 0, err
			}
			for _, rec := range recs {
				t0 := time.Now()
				if _, err := readRange(ctx, s.setup.archive, rec); err != nil {
					return nil, 0, err
				}
				t1 := time.Now()
				body, ok, err := fetchCapture(ctx, s.setup.archive, rec)
				if err != nil {
					return nil, 0, err
				}
				t2 := time.Now()
				decode = append(decode, us(t2.Sub(t1)-t1.Sub(t0)))
				if ok {
					bodies = append(bodies, body)
				}
			}
		}
	}
	if len(bodies) == 0 {
		return nil, 0, errors.New("replay sample holds no analyzable page")
	}
	return bodies, mean(decode), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
