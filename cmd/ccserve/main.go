// Command ccserve serves a Common Crawl-shaped archive over HTTP: the CDX
// index endpoint plus ranged WARC reads (see internal/commoncrawl.Server).
// It serves either a directory written by hvgen (-dir) or the synthetic
// archive directly from the generator (default).
//
// With -metrics a second listener exposes the archive's query/read
// counters on /metrics and pprof on /debug/pprof/, so a long-running
// archive server can be profiled while hvcrawl hammers it.
//
// Usage:
//
//	ccserve [-addr :8087] [-metrics :9091]
//	        [-dir ./archive | -domains 2400 -pages 20 -seed 22]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/obs"
	"github.com/hvscan/hvscan/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8087", "listen address")
		drain   = flag.Duration("drain", 15*time.Second, "graceful drain budget on SIGTERM")
		metrics = flag.String("metrics", "", "serve /metrics and /debug/pprof/ on this address (empty = off)")
		dir     = flag.String("dir", "", "serve an hvgen-written archive directory")
		domains = flag.Int("domains", 2400, "synthetic: domain universe size")
		pages   = flag.Int("pages", 20, "synthetic: max pages per domain")
		seed    = flag.Int64("seed", 22, "synthetic: generator seed")
	)
	flag.Parse()

	var archive commoncrawl.Archive
	if *dir != "" {
		disk, err := commoncrawl.OpenDisk(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccserve:", err)
			os.Exit(1)
		}
		defer disk.Close()
		archive = disk
		log.Printf("serving disk archive %s (%d crawls)", *dir, len(disk.Crawls()))
	} else {
		g := corpus.New(corpus.Config{Seed: *seed, Domains: *domains, MaxPages: *pages})
		archive = commoncrawl.NewSynthetic(g)
		log.Printf("serving synthetic archive (seed=%d, %d domains, <=%d pages)",
			*seed, *domains, *pages)
	}

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		archive = commoncrawl.Instrument(archive, reg)
	}
	if *metrics != "" {
		srv, err := obs.StartServer(*metrics, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccserve:", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Printf("metrics: http://%s/metrics (pprof on /debug/pprof/)", srv.Addr)
	}

	// The hardened listener + graceful drain from internal/serve: on
	// SIGTERM/Ctrl-C in-flight range reads finish (a crawler mid-fetch
	// sees a complete response, not a reset) before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := serve.NewHTTPServer(*addr, commoncrawl.NewServer(archive))
	log.Printf("listening on %s (drain budget %s)", *addr, *drain)
	if err := serve.Run(ctx, srv, *drain, nil); !serve.IsExpectedClose(err) {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}
