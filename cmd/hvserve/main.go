// Command hvserve is the online HTML violation checker: POST a
// document to /v1/check and get its violations, rule hits, and
// mitigation signals back as JSON, or POST it to /v1/fix to run the
// validated repair engine (internal/autofix) and get back the verified
// repaired document — or the original bytes with an explanation when
// the repair cannot be verified. The service is hardened for
// overload (see internal/serve): per-tenant rate limits, a bounded
// worker pool with explicit load shedding, request size/depth/time
// caps, slowloris defense, and a graceful SIGTERM drain.
//
// With -archive-dir or -archive-synthetic it also exposes
// GET /v1/archive-check?domain=...&crawl=...&limit=..., checking
// captures straight out of a Common Crawl-shaped archive behind a
// circuit breaker.
//
// With -loadgen it turns into the load generator instead: it offers
// corpus-page traffic to -url at one or more rates and prints a
// latency/shed summary per rate — the source of EXPERIMENTS.md's
// latency-vs-QPS curve.
//
// Usage:
//
//	hvserve [-addr :8811] [-rules FB1,DE3_1]
//	        [-max-body-mb 2] [-max-depth 512] [-timeout 2s]
//	        [-workers 0] [-queue 0] [-tenant-rate 100]
//	        [-archive-dir DIR | -archive-synthetic] [-drain 30s]
//	hvserve -loadgen -url http://127.0.0.1:8811/v1/check \
//	        [-qps 0 | -sweep 50,100,200,400] [-c 8] [-duration 5s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/resilience"
	"github.com/hvscan/hvscan/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8811", "listen address")
		rules      = flag.String("rules", "", "comma-separated rule IDs (empty = full catalogue)")
		maxBodyMB  = flag.Int64("max-body-mb", 2, "request body cap in MiB")
		maxDepth   = flag.Int("max-depth", 512, "open-element depth cap for tree parses")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-request check deadline")
		progress   = flag.Duration("body-progress", 5*time.Second, "per-chunk body read progress deadline (slowloris cutoff)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth (0 = 2x workers)")
		queueWait  = flag.Duration("queue-wait", 250*time.Millisecond, "max queued wait before shedding")
		tenantRate = flag.Float64("tenant-rate", 100, "per-tenant requests/second (negative = unlimited)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")

		archiveDir = flag.String("archive-dir", "", "enable /v1/archive-check over an hvgen archive directory")
		archiveSyn = flag.Bool("archive-synthetic", false, "enable /v1/archive-check over the synthetic archive")
		domains    = flag.Int("domains", 2400, "synthetic archive: domain universe size")
		maxPages   = flag.Int("pages", 20, "synthetic archive: max pages per domain")
		seed       = flag.Int64("seed", 22, "synthetic archive / loadgen corpus seed")

		loadgen  = flag.Bool("loadgen", false, "run as load generator instead of server")
		url      = flag.String("url", "http://127.0.0.1:8811/v1/check", "loadgen: target endpoint")
		qps      = flag.Float64("qps", 0, "loadgen: offered rate (0 = closed loop)")
		sweep    = flag.String("sweep", "", "loadgen: comma-separated QPS list; runs one pass per rate")
		conc     = flag.Int("c", 8, "loadgen: concurrent workers")
		duration = flag.Duration("duration", 5*time.Second, "loadgen: run length per rate")
		pages    = flag.Int("loadgen-pages", 64, "loadgen: distinct corpus bodies")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *loadgen {
		if err := runLoadgen(ctx, *url, *sweep, *qps, *conc, *duration, *seed, *pages); err != nil {
			fmt.Fprintln(os.Stderr, "hvserve:", err)
			os.Exit(1)
		}
		return
	}

	var checker *core.Checker
	if *rules != "" {
		ids, err := core.ParseRuleIDs(*rules)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hvserve:", err)
			os.Exit(2)
		}
		checker = core.NewChecker(ids...)
	}
	cfg := serve.Config{
		Checker:             checker,
		MaxBodyBytes:        *maxBodyMB << 20,
		MaxTreeDepth:        *maxDepth,
		RequestTimeout:      *timeout,
		BodyProgressTimeout: *progress,
		Admission: resilience.AdmissionConfig{
			Workers:   *workers,
			Queue:     *queue,
			QueueWait: *queueWait,
		},
		TenantRate: *tenantRate,
	}
	if *archiveDir != "" {
		disk, err := commoncrawl.OpenDisk(*archiveDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hvserve:", err)
			os.Exit(1)
		}
		defer disk.Close()
		cfg.Archive = disk
	} else if *archiveSyn {
		g := corpus.New(corpus.Config{Seed: *seed, Domains: *domains, MaxPages: *maxPages})
		cfg.Archive = commoncrawl.NewSynthetic(g)
	}

	srv := serve.New(cfg)
	// The repair engine's per-rule applied/verified/rejected counters
	// belong on the same /metrics page as the serve_fix_* series.
	autofix.Instrument(srv.Registry())
	if checker == nil {
		log.Printf("checking with the full catalogue")
	} else {
		log.Printf("checking %d rules", len(checker.Rules()))
	}
	log.Printf("listening on %s (drain budget %s)", *addr, *drain)
	err := serve.Run(ctx, serve.NewHTTPServer(*addr, srv), *drain, srv.BeginDrain)
	if !serve.IsExpectedClose(err) {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}

// runLoadgen offers traffic at each rate in the sweep (or the single
// -qps) and prints one summary line per rate, TSV so the numbers paste
// straight into EXPERIMENTS.md.
func runLoadgen(ctx context.Context, url, sweep string, qps float64, conc int, duration time.Duration, seed int64, pages int) error {
	rates := []float64{qps}
	if sweep != "" {
		rates = rates[:0]
		for _, s := range strings.Split(sweep, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad -sweep entry %q: %w", s, err)
			}
			rates = append(rates, r)
		}
	}
	fmt.Println("qps_offered\tqps_achieved\trequests\tok\tshed\terrors\tp50_ms\tp95_ms\tp99_ms\tmax_ms")
	for _, r := range rates {
		res, err := serve.Load(ctx, serve.LoadConfig{
			URL:         url,
			QPS:         r,
			Concurrency: conc,
			Duration:    duration,
			Seed:        seed,
			Pages:       pages,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%.0f\t%.1f\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r, res.AchievedQPS, res.Requests, res.Status[200], res.Shed, res.Errors,
			ms(res.P50), ms(res.P95), ms(res.P99), ms(res.Max))
		if ctx.Err() != nil {
			break
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
