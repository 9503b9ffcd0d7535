package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/hvscan/hvscan/internal/analysis"
	"github.com/hvscan/hvscan/internal/cdx"
	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/crawler"
	"github.com/hvscan/hvscan/internal/report"
	"github.com/hvscan/hvscan/internal/store"
	"github.com/hvscan/hvscan/internal/tranco"
)

// The study adapter: the only file that calls the crawler, archive,
// store and report entry points.

// studySetup is what a longitudinal crawl builds before measuring: the
// opened archive with its CDX indexes, the Tranco-derived dataset and
// the checker.
type studySetup struct {
	archive *commoncrawl.DiskArchive
	crawls  []string
	dataset []string
	checker *core.Checker
}

// openStudy opens the archive under dir, derives the dataset (paper
// §4.1: the intersection of every list's top, by average rank) and
// builds the full-catalogue checker.
func openStudy(dir string) (*studySetup, error) {
	a, err := commoncrawl.OpenDisk(filepath.Join(dir, "archive"))
	if err != nil {
		return nil, err
	}
	var lists []*tranco.List
	for i := 1; i <= trancoLists; i++ {
		name := fmt.Sprintf("tranco-%02d.csv", i)
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			a.Close()
			return nil, err
		}
		l, err := tranco.Parse(name, f)
		f.Close()
		if err != nil {
			a.Close()
			return nil, err
		}
		lists = append(lists, l)
	}
	stable := tranco.IntersectTop(lists, len(lists[0].Entries))
	if len(stable) == 0 {
		a.Close()
		return nil, errors.New("the Tranco lists share no domain")
	}
	dataset := make([]string, len(stable))
	for i, e := range stable {
		dataset[i] = e.Domain
	}
	// cdx.Index sorts itself on its first lookup without a lock, so the
	// crawler's concurrent first queries of a crawl race. One query per
	// crawl here, before any worker runs, finishes reading the indexes.
	for _, crawl := range a.Crawls() {
		if _, err := a.Query(context.Background(), crawl, dataset[0], 1); err != nil {
			a.Close()
			return nil, err
		}
	}
	return &studySetup{archive: a, crawls: a.Crawls(), dataset: dataset, checker: core.NewChecker()}, nil
}

func (s *studySetup) Close() error { return s.archive.Close() }

// newPipeline assembles the crawler over an archive and checker (either
// may be wrapped) with a fresh store. Workers is the CPU count, the
// crawler's own default, made explicit because it sets the load.
func newPipeline(a commoncrawl.Archive, c crawler.Checker, progress func(crawl, domain string, done, total int)) *crawler.Pipeline {
	return crawler.New(a, c, store.New(), crawler.Config{
		Workers:        runtime.NumCPU(),
		PagesPerDomain: studyPages,
		Progress:       progress,
	})
}

// crawlOutput is one pass of the longitudinal job.
type crawlOutput struct {
	stats  []store.CrawlStats
	errs   []error
	loaded *store.Store
	report string
	// save and render time store.Save and analysis plus report.All.
	save, render time.Duration
	retries      uint64
}

// crawlPass runs the whole job once: every snapshot, then store.Save →
// store.Load → report.All. A snapshot that stops early is kept with its
// error; the output checks then count the pages it did not analyze.
func crawlPass(ctx context.Context, p *crawler.Pipeline, crawls, dataset []string, path string) (*crawlOutput, error) {
	o := &crawlOutput{}
	for _, crawl := range crawls {
		st, err := p.RunSnapshot(ctx, crawl, dataset)
		o.stats = append(o.stats, st)
		if err != nil {
			o.errs = append(o.errs, err)
		}
	}
	t0 := time.Now()
	if err := p.Store().Save(path); err != nil {
		return nil, err
	}
	o.save = time.Since(t0)
	loaded, err := store.Load(path)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	o.loaded = loaded
	o.report = report.All(analysis.New(loaded), o.stats)
	o.render = time.Since(t1)
	o.retries = p.Metrics().Retries.Value()
	return o, nil
}

func (o *crawlOutput) pagesAnalyzed() int {
	n := 0
	for _, st := range o.stats {
		n += st.PagesAnalyzed
	}
	return n
}

// domain returns a reloaded domain's analyzed pages and per-rule page
// counts; the store keeps only domains with analyzed pages.
func (o *crawlOutput) domain(crawl, domain string) (pages int, violations map[string]int) {
	dr := o.loaded.Get(crawl, domain)
	if dr == nil {
		return 0, nil
	}
	return dr.PagesAnalyzed, dr.Violations
}

// queryRecords lists a domain's captures, for replays.
func queryRecords(ctx context.Context, a commoncrawl.Archive, crawl, domain string) ([]*cdx.Record, error) {
	return a.Query(ctx, crawl, domain, studyPages)
}

// fetchCapture fetches and decodes one capture, returning its body and
// whether the crawler would analyze it.
func fetchCapture(ctx context.Context, a commoncrawl.Archive, rec *cdx.Record) ([]byte, bool, error) {
	c, err := commoncrawl.FetchCapture(ctx, a, rec)
	if err != nil {
		return nil, false, err
	}
	return c.Body, analyzable(c.Status, c.MIME, c.Body), nil
}

func readRange(ctx context.Context, a commoncrawl.Archive, rec *cdx.Record) ([]byte, error) {
	return a.ReadRange(ctx, rec.Filename, rec.Offset, rec.Length)
}

// crawlProbe wraps the archive and checker the crawler calls. Untraced,
// it only notes when each domain's index query starts, for the domain
// latency. Traced, it records a span around every archive and checker
// call; a page span runs from the page's record read to the end of its
// check, and a domain span from the query to the crawler's completion
// callback.
type crawlProbe struct {
	commoncrawl.Archive
	checker crawler.Checker
	rec     *recorder // nil when untraced

	mu        sync.Mutex
	started   map[string]int64 // crawl|domain → query start
	latencies []domainLatency
	// Traced only: per worker goroutine, its domain and open page.
	domainOf map[uint64]string
	pageOf   map[uint64]*openPage
	kids     map[string][]int32 // crawl|domain → spans to parent
	nextID   uint64
	bytes    int64
}

type domainLatency struct {
	crawl, domain string
	d             time.Duration
}

type openPage struct {
	id    uint64
	start int64
	read  int32
}

func newCrawlProbe(a commoncrawl.Archive, c crawler.Checker, rec *recorder) *crawlProbe {
	return &crawlProbe{
		Archive: a, checker: c, rec: rec,
		started: map[string]int64{}, domainOf: map[uint64]string{},
		pageOf: map[uint64]*openPage{}, kids: map[string][]int32{},
	}
}

func (p *crawlProbe) Query(ctx context.Context, crawl, domain string, limit int) ([]*cdx.Record, error) {
	key := crawl + "|" + domain
	t0 := now()
	recs, err := p.Archive.Query(ctx, crawl, domain, limit)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.started[key] = t0
	if p.rec != nil {
		p.nextID++
		i := p.rec.add(span{ID: p.nextID, Parent: -1, Name: "commoncrawl.query", Start: t0, End: now()})
		p.kids[key] = append(p.kids[key], i)
		p.domainOf[goid()] = key
	}
	return recs, err
}

func (p *crawlProbe) ReadRange(ctx context.Context, filename string, offset, length int64) ([]byte, error) {
	if p.rec == nil {
		return p.Archive.ReadRange(ctx, filename, offset, length)
	}
	t0 := now()
	b, err := p.Archive.ReadRange(ctx, filename, offset, length)
	t1 := now()
	g := goid()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	p.bytes += int64(len(b))
	i := p.rec.add(span{ID: p.nextID, Parent: -1, Name: "commoncrawl.read", Start: t0, End: t1})
	p.pageOf[g] = &openPage{id: p.nextID, start: t0, read: i}
	return b, err
}

// Check is the crawler.Checker the pipeline calls when traced.
func (p *crawlProbe) Check(html []byte) (*core.Report, error) {
	t0 := now()
	rep, err := p.checker.Check(html)
	t1 := now()
	g := goid()
	p.mu.Lock()
	defer p.mu.Unlock()
	pg := p.pageOf[g]
	if pg == nil {
		return rep, err
	}
	delete(p.pageOf, g)
	c := p.rec.add(span{ID: pg.id, Parent: -1, Name: "core.check", Start: t0, End: t1})
	page := p.rec.add(span{ID: pg.id, Parent: -1, Name: "crawler.page", Start: pg.start, End: t1})
	p.rec.setParent(pg.read, page)
	p.rec.setParent(c, page)
	key := p.domainOf[g]
	p.kids[key] = append(p.kids[key], page)
	return rep, err
}

// progress is the pipeline's per-domain completion callback.
func (p *crawlProbe) progress(crawl, domain string, _, _ int) {
	t1 := now()
	key := crawl + "|" + domain
	p.mu.Lock()
	defer p.mu.Unlock()
	t0, ok := p.started[key]
	if !ok {
		return
	}
	delete(p.started, key)
	p.latencies = append(p.latencies, domainLatency{crawl, domain, time.Duration(t1 - t0)})
	if p.rec != nil {
		p.nextID++
		d := p.rec.add(span{ID: p.nextID, Parent: -1, Name: "crawler.domain", Start: t0, End: t1})
		for _, k := range p.kids[key] {
			p.rec.setParent(k, d)
		}
		delete(p.kids, key)
	}
}

// drain returns and forgets the domain latencies measured so far.
func (p *crawlProbe) drain() []domainLatency {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.latencies
	p.latencies = nil
	return out
}

// pipelineChecker returns what the pipeline should call: the probe itself when
// traced, the bare checker otherwise.
func (p *crawlProbe) pipelineChecker() crawler.Checker {
	if p.rec != nil {
		return p
	}
	return p.checker
}
