// Command hvbench records and gates the repo's benchmark trajectory:
// the parser hot path, the full-catalogue check, the archive cache, the
// WARC fetch-and-decode path, and the serving layer's end-to-end request
// latency.
//
// It runs the selected benchmarks through `go test -json -bench`, folds
// the event stream into the stable schema of internal/perf, and either
// records the run as a BENCH_<date>.json file or gates it against the
// checked-in BENCH_baseline.json (or both). The gate fails — non-zero
// exit — when any baseline benchmark regresses beyond the tolerance on
// ns/op or disappears from the run.
//
// Typical uses:
//
//	hvbench                         # run + gate against BENCH_baseline.json
//	hvbench -record                 # run + write BENCH_<date>.json, no gate
//	hvbench -record -out BENCH_baseline.json   # refresh the baseline
//	hvbench -summary "$GITHUB_STEP_SUMMARY"    # gate + markdown delta table
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"github.com/hvscan/hvscan/internal/perf"
)

func main() {
	var (
		record    = flag.Bool("record", false, "write the run to -out and skip the gate (combine with -gate to do both)")
		gate      = flag.Bool("gate", false, "compare the run against -baseline and exit non-zero on regression (default when -record is not set)")
		out       = flag.String("out", "", "output path for -record (default BENCH_<yyyymmdd>.json)")
		baseline  = flag.String("baseline", "BENCH_baseline.json", "baseline run to gate against")
		tolerance = flag.Float64("tolerance", 0.10, "relative ns/op regression allowed before the gate fails")
		benchRe   = flag.String("bench", "^(BenchmarkTokenize|BenchmarkParse|BenchmarkCheckFull|BenchmarkArchiveReadRange|BenchmarkFetchCapture|BenchmarkServeCheck)$", "benchmark selection regexp passed to go test")
		pkg       = flag.String("pkg", "./internal/htmlparse,./internal/core,./internal/commoncrawl,./internal/serve", "comma-separated packages whose benchmarks to run")
		count     = flag.Int("count", 5, "go test -count; the fastest of N runs is kept per benchmark")
		summary   = flag.String("summary", "", "append the markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)")
		input     = flag.String("input", "", "parse an existing go test -json stream from this file instead of running benchmarks ('-' for stdin)")
	)
	flag.Parse()
	if !*record {
		*gate = true
	}

	run, err := collect(*input, *benchRe, *pkg, *count)
	if err != nil {
		fatal(err)
	}
	stamp(run)

	if *record {
		path := *out
		if path == "" {
			path = "BENCH_" + time.Now().UTC().Format("20060102") + ".json"
		}
		if err := writeRun(path, run); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d benchmarks to %s (go %s, sha %s)\n",
			len(run.Benchmarks), path, run.GoVersion, short(run.GitSHA))
	}
	if !*gate {
		return
	}

	base, err := readRun(*baseline)
	if err != nil {
		fatal(fmt.Errorf("loading baseline: %w (record one with hvbench -record -out %s)", err, *baseline))
	}
	diff := perf.Compare(base, run, *tolerance)
	table := diff.Markdown()
	fmt.Print(table)
	if *summary != "" {
		header := fmt.Sprintf("## Benchmark gate (baseline %s, tolerance %.0f%%)\n\n",
			short(base.GitSHA), *tolerance*100)
		if err := appendFile(*summary, header+table+"\n"); err != nil {
			fatal(err)
		}
	}
	if fails := diff.Failures(); len(fails) > 0 {
		for _, f := range fails {
			switch f.Verdict {
			case perf.Missing:
				fmt.Fprintf(os.Stderr, "FAIL: %s present in baseline but not in this run\n", f.Name)
			default:
				fmt.Fprintf(os.Stderr, "FAIL: %s regressed %.1f%% (%.0f -> %.0f ns/op, tolerance %.0f%%)\n",
					f.Name, (f.Ratio-1)*100, f.Old.NsPerOp, f.New.NsPerOp, *tolerance*100)
			}
		}
		os.Exit(1)
	}
	fmt.Printf("gate ok: %d benchmarks within %.0f%% of baseline %s\n",
		len(diff.Deltas), *tolerance*100, short(base.GitSHA))
}

// collect produces the perf.Run, either by running the benchmarks or by
// parsing a previously captured event stream.
func collect(input, benchRe, pkg string, count int) (*perf.Run, error) {
	if input != "" {
		f := os.Stdin
		if input != "-" {
			var err error
			if f, err = os.Open(input); err != nil {
				return nil, err
			}
			defer f.Close()
		}
		return perf.ParseTestJSON(f)
	}
	// -p 1: go test otherwise runs the packages' benchmark binaries side
	// by side, one per CPU, and each times the other's load as its own.
	args := []string{"test", "-json", "-p", "1", "-run", "^$",
		"-bench", benchRe, "-benchmem", fmt.Sprintf("-count=%d", count)}
	for _, p := range strings.Split(pkg, ",") {
		if p = strings.TrimSpace(p); p != "" {
			args = append(args, p)
		}
	}
	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return perf.ParseTestJSON(&stdout)
}

// stamp records the run's provenance inside the payload so the file is
// self-describing regardless of its name or location.
func stamp(run *perf.Run) {
	run.Date = time.Now().UTC().Format(time.RFC3339)
	run.GoVersion = runtime.Version()
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		run.GitSHA = strings.TrimSpace(string(sha))
		// A run of uncommitted edits is not a run of HEAD: mark it.
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			run.GitSHA += "-dirty"
		}
	}
}

func writeRun(path string, run *perf.Run) error {
	b, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRun(path string) (*perf.Run, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var run perf.Run
	if err := json.Unmarshal(b, &run); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(run.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in file", path)
	}
	return &run, nil
}

func appendFile(path, s string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(s)
	return err
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	if sha == "" {
		return "(unknown)"
	}
	return sha
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hvbench:", err)
	os.Exit(1)
}
