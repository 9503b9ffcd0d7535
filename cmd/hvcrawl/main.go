// Command hvcrawl runs the longitudinal study end to end: derive the
// dataset from Tranco-style lists (the paper's top-50K intersection rule),
// query every snapshot for every domain, fetch and check all pages, and
// persist the per-domain results plus crawl statistics.
//
// The archive comes either from a ccserve instance (-server, the network
// path) or is generated in-process (the fast path).
//
// With -metrics the process serves live observability endpoints while the
// crawl runs: Prometheus-style counters and stage latency histograms on
// /metrics, and the full pprof suite on /debug/pprof/. At the end of the
// run a summary (pages/sec, per-stage p50/p95/p99, error rates) is logged
// and embedded in the stats file.
//
// The crawl is crash-safe: every finished (crawl, domain) pair is
// appended to a resume journal (-journal, default <out>.journal), and
// -resume replays it on restart so completed work is never repeated.
// Failed domains consume an error budget (-max-domain-failures) instead
// of aborting the run; partial results are saved even when the budget
// is exhausted.
//
// Usage:
//
//	hvcrawl -out results.jsonl -stats stats.json [-server http://...]
//	        [-domains 2400 -pages 20 -seed 22] [-workers N] [-snapshots 8]
//	        [-metrics :9090] [-retries N] [-resume] [-journal path]
//	        [-max-domain-failures N] [-fix] [-cache-mb 64]
//
// With -fix every analyzed page is additionally run through the
// validated repair engine (internal/autofix); per-snapshot repair
// outcomes and machine-repairability rates are aggregated into the
// stats file and rendered by `hvreport -experiment fix`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/crawler"
	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/obs"
	"github.com/hvscan/hvscan/internal/store"
	"github.com/hvscan/hvscan/internal/tranco"
)

// options collects the command-line configuration.
type options struct {
	server    string
	out       string
	statsOut  string
	metrics   string
	domains   int
	pages     int
	seed      int64
	workers   int
	snapshots int
	lists     int
	cutoff    int
	retries   int
	maxFail   int
	journal   string
	resume    bool
	fix       bool
	cacheMB   int
}

// statsFile is the persisted shape of -stats: the per-snapshot Table 2
// rows plus the whole-run observability summary. hvreport accepts both
// this and the bare snapshot array older runs wrote.
type statsFile struct {
	Snapshots []store.CrawlStats `json:"snapshots"`
	Summary   crawler.RunSummary `json:"summary"`
}

func main() {
	var o options
	flag.StringVar(&o.server, "server", "", "ccserve base URL (default: in-process synthetic archive)")
	flag.StringVar(&o.out, "out", "results.jsonl", "result store output path")
	flag.StringVar(&o.statsOut, "stats", "stats.json", "crawl statistics output path")
	flag.StringVar(&o.metrics, "metrics", "", "serve /metrics and /debug/pprof/ on this address (e.g. :9090; empty = off)")
	flag.IntVar(&o.domains, "domains", 2400, "synthetic: domain universe size")
	flag.IntVar(&o.pages, "pages", 20, "pages per domain to analyze (paper: 100)")
	flag.Int64Var(&o.seed, "seed", 22, "synthetic: generator seed")
	flag.IntVar(&o.workers, "workers", 0, "concurrent domain workers (default: NumCPU)")
	flag.IntVar(&o.snapshots, "snapshots", 8, "number of snapshots to crawl (oldest first)")
	flag.IntVar(&o.lists, "lists", 5, "Tranco-style lists for the dataset intersection")
	flag.IntVar(&o.cutoff, "cutoff", 0, "rank cutoff for the intersection (default: universe size)")
	flag.IntVar(&o.retries, "retries", 0, "retries per index query / record fetch (0 = default of 2, -1 = disabled)")
	flag.IntVar(&o.maxFail, "max-domain-failures", 0, "error budget: failed domains tolerated per snapshot (0 = default of 10%, -1 = unlimited)")
	flag.StringVar(&o.journal, "journal", "", "resume journal path (default: <out>.journal)")
	flag.BoolVar(&o.resume, "resume", false, "replay the journal and skip already-completed (crawl, domain) pairs")
	flag.BoolVar(&o.fix, "fix", false, "measure machine repairability: run every analyzed page through the validated repair engine and aggregate outcomes per snapshot")
	flag.IntVar(&o.cacheMB, "cache-mb", 0, "in-memory archive read cache budget in MiB (0 = off)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "hvcrawl:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	g := corpus.New(corpus.Config{Seed: o.seed, Domains: o.domains, MaxPages: o.pages})

	// Dataset derivation (paper §4.1): intersect the top cutoff of every
	// list, order by average rank.
	if o.cutoff <= 0 {
		o.cutoff = o.domains
	}
	stable := tranco.IntersectTop(g.TrancoLists(o.lists), o.cutoff)
	dataset := make([]string, len(stable))
	for i, e := range stable {
		dataset[i] = e.Domain
	}
	log.Printf("dataset: %d domains (intersection of %d lists at rank <= %d, avg rank %.0f)",
		len(dataset), o.lists, o.cutoff, tranco.AverageRank(stable))

	// One registry carries every layer's series: archive round trips,
	// pipeline stages, per-rule hits, store writes.
	reg := obs.NewRegistry()
	htmlparse.Instrument(reg)

	var archive commoncrawl.Archive
	if o.server != "" {
		archive = commoncrawl.NewClient(o.server)
		log.Printf("archive: %s", o.server)
	} else {
		archive = commoncrawl.NewSynthetic(g)
		log.Printf("archive: in-process synthetic (seed=%d)", o.seed)
	}
	archive = commoncrawl.Instrument(archive, reg)
	if o.cacheMB > 0 {
		// The cache sits above the instrumented inner archive, so the
		// commoncrawl_reads_total counters keep measuring true backend
		// traffic while the cache_* series measure hit rates.
		archive = commoncrawl.NewTiered(archive, int64(o.cacheMB)<<20).Instrument(reg)
		log.Printf("archive cache: %d MiB budget", o.cacheMB)
	}

	crawls := archive.Crawls()
	if len(crawls) == 0 {
		// The Archive interface can't surface a listing error, so an
		// unreachable -server shows up here; zero snapshots silently
		// "succeeding" would mask a dead archive.
		return fmt.Errorf("archive lists no crawls (is %s reachable?)", o.server)
	}
	if o.snapshots > 0 && o.snapshots < len(crawls) {
		crawls = crawls[:o.snapshots]
	}

	if o.metrics != "" {
		srv, err := obs.StartServer(o.metrics, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("metrics: http://%s/metrics (pprof on /debug/pprof/)", srv.Addr)
	}

	// The resume journal is always maintained (crash safety costs one
	// appended line per domain); -resume decides whether an existing one
	// is replayed or cleared.
	journalPath := o.journal
	if journalPath == "" {
		journalPath = o.out + ".journal"
	}
	if !o.resume {
		if err := os.Remove(journalPath); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("clearing stale journal: %w", err)
		}
	}
	jr, warn, err := store.OpenJournal(journalPath)
	if err != nil {
		return err
	}
	defer jr.Close()
	if warn != "" {
		log.Printf("warning: %s", warn)
	}
	if o.resume && jr.Len() > 0 {
		log.Printf("resume: journal %s records %d completed (crawl, domain) pairs", journalPath, jr.Len())
	}

	st := store.New().Instrument(reg)
	checker := core.NewChecker().Instrument(reg)
	if o.fix {
		autofix.Instrument(reg)
		log.Print("fix: measuring machine repairability of every analyzed page")
	}
	pipe := crawler.New(archive, checker, st, crawler.Config{
		Workers:           o.workers,
		PagesPerDomain:    o.pages,
		Retries:           o.retries,
		MaxDomainFailures: o.maxFail,
		Fix:               o.fix,
		Journal:           jr,
		Registry:          reg,
	})

	// Ctrl-C finishes the in-flight domains, saves what was measured and
	// exits cleanly — a multi-day crawl must never lose its progress.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var allStats []store.CrawlStats
	var runErr error
	runStart := time.Now()
	for _, crawl := range crawls {
		start := time.Now()
		stats, err := pipe.RunSnapshot(ctx, crawl, dataset)
		// Whatever happened, the stats describe real completed work:
		// keep them so partial results survive budget exhaustion and
		// interrupts alike.
		allStats = append(allStats, stats)
		if err != nil {
			if ctx.Err() != nil {
				log.Printf("interrupted during %s; saving partial results (restart with -resume to continue)", crawl)
				break
			}
			log.Printf("%s: snapshot failed: %v", crawl, err)
			runErr = err
			break
		}
		elapsed := time.Since(start)
		ppm := float64(stats.PagesAnalyzed) / elapsed.Minutes()
		extra := ""
		if stats.DomainsFailed > 0 {
			extra = fmt.Sprintf(", %d domains failed %v", stats.DomainsFailed, stats.FailedByClass)
		}
		if stats.DomainsResumed > 0 {
			extra += fmt.Sprintf(", %d resumed from journal", stats.DomainsResumed)
		}
		if rate, violating, ok := stats.Repairability(); ok {
			extra += fmt.Sprintf(", repairability %.1f%% of %d violating pages", 100*rate, violating)
		}
		log.Printf("%s: %d/%d domains analyzed, %d pages (avg %.1f/domain) in %s (%.0f pages/min)%s",
			crawl, stats.Analyzed, stats.Found, stats.PagesAnalyzed, stats.AvgPages(),
			elapsed.Round(time.Millisecond), ppm, extra)
	}
	summary := pipe.Summary(time.Since(runStart))
	log.Print(summary)

	if err := st.Save(o.out); err != nil {
		return err
	}
	log.Printf("results: %s (%d domain records)", o.out, st.Len())

	f, err := os.Create(o.statsOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(statsFile{Snapshots: allStats, Summary: summary}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("stats: %s", o.statsOut)
	// Results and stats are on disk; now surface the failure (if any) in
	// the exit code.
	return runErr
}
