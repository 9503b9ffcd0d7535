// Command perfbench is the repository's end-to-end benchmark. It
// generates seeded inputs, drives the program through its public entry
// points on one of three workloads, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload study|serve|repair --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured without
// tracing. With --trace 1 the run measures untraced, then traced, and
// prints the per-layer ledger: span table, layer metrics, residuals,
// tracing overhead and sample counts. workloads.json records why each
// workload exists, which layers it loads and which end-to-end metric
// each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pages_per_s", "1/s"},
	{"cpu_us_per_page", "us"},
	{"peak_rss_mib", "MiB"},
	{"success_ratio", "ratio"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it does not load.
var perLayer = []metricDef{
	{"htmlparse.preprocess_us", "us"},
	{"htmlparse.tokenize_us", "us"},
	{"htmlparse.tree_us", "us"},
	{"htmlparse.alloc_kb", "KiB"},
	{"core.check_us", "us"},
	{"core.rules_us", "us"},
	{"core.check_residual_us", "us"},
	{"core.findings", "count"},
	{"autofix.repair_us", "us"},
	{"autofix.p50_ms", "ms"},
	{"autofix.p99_ms", "ms"},
	{"autofix.clean", "count"},
	{"autofix.fixed", "count"},
	{"autofix.partial", "count"},
	{"autofix.unfixable", "count"},
	{"commoncrawl.query_us", "us"},
	{"commoncrawl.read_us", "us"},
	{"commoncrawl.read_kb", "KiB"},
	{"warc.decode_us", "us"},
	{"crawler.domain_p50_ms", "ms"},
	{"crawler.busy_ratio", "ratio"},
	{"crawler.residual_us", "us"},
	{"crawler.retries", "count"},
	{"store.save_ms", "ms"},
	{"report.render_ms", "ms"},
	{"serve.handler_us", "us"},
	{"serve.overhead_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.shed_ratio", "ratio"},
	{"serve.p50_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"runtime.gc_per_kpage", "1/kpage"},
	{"trace.overhead_us", "us"},
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 11

// runEnv is one run's settings and scratch locations.
type runEnv struct {
	seed   int64
	window time.Duration // how long the timed phase lasts
	trace  bool
	cache  string    // fixture cache, kept across runs
	work   string    // scratch files, removed when the run ends
	out    io.Writer // the ledger and notes; the result line follows them
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// loads lists the modules whose per-layer metrics the workload
	// measures; the others read 0 because the workload does no work there.
	loads []string
}

func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

var workloads = map[string]func(*runEnv) (*result, error){
	"study":  runStudy,
	"serve":  runServe,
	"repair": runRepair,
}

func main() {
	var (
		workload = flag.String("workload", "", "study, serve or repair")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 prints the per-layer ledger of a traced run")
		root     = flag.String("root", ".", "checkout root; fixtures and scratch files go under <root>/.bench_build")
		child    = flag.Bool("serve-child", false, "run as the server process of the serve workload")
		spans    = flag.String("spans", "", "with -serve-child: trace the handler and write its spans here")
		probe    = flag.String("repair-setup", "", "set up the repair workload on this fixture in a fresh process, then exit")
	)
	flag.Parse()
	if *probe != "" {
		if err := repairSetup(*probe); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench repair set-up:", err)
			os.Exit(1)
		}
		return
	}
	if *child {
		if err := serveChild(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload study|serve|repair, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if err := mainErr(run, *root, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(run func(*runEnv) (*result, error), root string, seed int64, seconds int, trace bool) error {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	fmt.Fprintf(os.Stderr, "perfbench: nproc=%d go=%s %s/%s seed=%d\n",
		runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, seed)
	env := &runEnv{
		seed: seed, window: time.Duration(seconds) * time.Second, trace: trace,
		cache: filepath.Join(build, "fixtures"), work: work, out: os.Stdout,
	}
	res, err := run(env)
	if err != nil {
		return err
	}
	line, err := resultLine(res, trace)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// resultLine renders the final JSON line with exactly the metrics of
// the run's kind.
func resultLine(r *result, trace bool) (string, error) {
	if r.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && (!trace || r.loadsLayer(d.name)) {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	return string(b), err
}

func (r *result) loadsLayer(metric string) bool {
	module, _, _ := strings.Cut(metric, ".")
	return slices.Contains(r.loads, module)
}

// printMetrics prints the run's metrics of defs as a table.
func printMetrics(w io.Writer, title string, defs []metricDef, m map[string]float64) {
	fmt.Fprintf(w, "%s\n", title)
	names := make([]string, 0, len(defs))
	units := map[string]string{}
	for _, d := range defs {
		if _, ok := m[d.name]; ok {
			names = append(names, d.name)
			units[d.name] = d.unit
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", n, m[n], units[n])
	}
}
