package main

import (
	"bufio"
	"fmt"
	"hash/maphash"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"time"

	"github.com/hvscan/hvscan/internal/core"
)

// The repair workload: the hvfix job, sequential validated repair of
// large documents. The load is per byte: tokenizer, tree builder, rules
// and serializer do nearly all the work, and repair re-parses each
// output. A pass covers every document of the fixture; the first pass is
// the warm-up and the reference the timed passes must repeat exactly.

type repairRun struct {
	env     *runEnv
	docs    *docSet
	checker *core.Checker
	res     *result
	// ref is the warm-up pass: each document's outcome and output hash.
	ref  []repairRef
	seed maphash.Seed
}

type repairRef struct {
	outcome string
	sum     uint64
}

// repairPass is one pass over the documents.
type repairPass struct {
	wall, cpu time.Duration
	ran       time.Duration // wall time net of the CPU time the host stole
	rss       float64       // peak resident set during the pass, MiB
	lat       []float64     // ms per document
	counts    map[string]int
	docs      int
}

func runRepair(e *runEnv) (*result, error) {
	dir, err := fixtureDir(e.cache, "repair", e.seed, genRepair)
	if err != nil {
		return nil, err
	}
	if err := warmFiles(dir); err != nil {
		return nil, err
	}
	docs, err := openDocs(dir)
	if err != nil {
		return nil, err
	}
	defer docs.Close()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := timeRepairSetup(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	r := &repairRun{env: e, docs: docs, checker: newChecker(), res: &result{metrics: map[string]float64{}}, seed: maphash.MakeSeed()}
	if err := r.reference(); err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	passes, err := r.timedPasses(nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m := r.res.metrics
	var rates, wallRates, costs, p50s, lat, rss []float64
	n := 0
	for _, p := range passes {
		rates = append(rates, float64(p.docs)/p.ran.Seconds())
		wallRates = append(wallRates, float64(p.docs)/p.wall.Seconds())
		costs = append(costs, us(p.cpu)/float64(p.docs))
		p50s = append(p50s, median(slices.Clone(p.lat)))
		lat = append(lat, p.lat...)
		rss = append(rss, p.rss)
		n += p.docs
	}
	m["setup_s"] = median(setups)
	m["pages_per_s"] = steadyRate(rates)
	m["cpu_us_per_page"] = steadyCost(costs)
	m["peak_rss_mib"] = steadyCost(rss)
	fmt.Fprintf(e.out, "repair: %d documents, %d timed passes, %d repairs timed, %d set-ups; %.2f documents per wall-clock second with steal\n",
		len(docs.refs), len(passes), n, len(setups), steadyRate(wallRates))
	if e.trace {
		m["autofix.p50_ms"] = steadyCost(p50s)
		// A p99 needs ten samples beyond it.
		for len(lat) < 1000 {
			p, err := r.pass(nil)
			if err != nil {
				return nil, err
			}
			lat = append(lat, p.lat...)
		}
		m["autofix.p99_ms"] = quantile(slices.Clone(lat), 0.99)
		fmt.Fprintf(e.out, "autofix.p99_ms %.3f over %d samples, %d beyond\n", m["autofix.p99_ms"], len(lat), beyond(len(lat), 0.99))
		m["runtime.gc_per_kpage"] = float64(ms1.NumGC-ms0.NumGC) / float64(n) * 1000
		if err := r.traced(m["cpu_us_per_page"]); err != nil {
			return nil, err
		}
	}
	m["success_ratio"] = 1 - float64(r.res.failed)/float64(r.res.attempted)
	printMetrics(e.out, "repair end-to-end:", endToEnd, m)
	return r.res, nil
}

// repairSetup is the repair job's set-up, run in a fresh process: build
// the checker and open the documents. Building the checker alone takes
// microseconds, so the set-up is timed from process start, as the
// server's is.
func repairSetup(dir string) error {
	newChecker()
	docs, err := openDocs(dir)
	if err != nil {
		return err
	}
	defer docs.Close()
	if _, err := docs.read(0); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}

// timeRepairSetup starts a process that runs repairSetup and returns the
// time until it reports ready.
func timeRepairSetup(dir string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-repair-setup", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("repair set-up process: %q %v", line, rerr)
	}
	return d, nil
}

// reference is the warm-up pass. Each output is re-checked with a fresh
// checker: no rule may have more findings than in the input.
func (r *repairRun) reference() error {
	for i := range r.docs.refs {
		doc, err := r.docs.read(i)
		if err != nil {
			return err
		}
		r.res.attempted++
		out, outcome, err := repair(doc)
		if err != nil {
			r.res.fail(1, "document %d: repair: %v", i, err)
			r.ref = append(r.ref, repairRef{})
			continue
		}
		r.ref = append(r.ref, repairRef{outcome, maphash.Bytes(r.seed, out)})
		before, err := ruleCounts(r.checker, doc)
		if err != nil {
			return err
		}
		after, err := ruleCounts(r.checker, out)
		if err != nil {
			r.res.fail(1, "document %d: repaired output does not check: %v", i, err)
			continue
		}
		for rule, n := range after {
			if n > before[rule] {
				r.res.fail(1, "document %d (%s): %s has %d findings after repair, %d before", i, outcome, rule, n, before[rule])
				break
			}
		}
	}
	return nil
}

func (r *repairRun) timedPasses(rec *recorder) ([]repairPass, error) {
	var out []repairPass
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < r.env.window {
		p, err := r.pass(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// pass repairs every document once. An outcome or output that differs
// from the reference pass fails that document.
func (r *repairRun) pass(rec *recorder) (repairPass, error) {
	p := repairPass{counts: map[string]int{}}
	if err := resetPeakRSS(0); err != nil {
		return p, err
	}
	h0, err := readHostTimes()
	if err != nil {
		return p, err
	}
	cpu0, t0 := selfCPU(), time.Now()
	for i := range r.docs.refs {
		doc, err := r.docs.read(i)
		if err != nil {
			return p, err
		}
		s := now()
		out, outcome, err := repair(doc)
		e := now()
		p.lat = append(p.lat, float64(e-s)/1e6)
		if rec != nil {
			rec.add(span{ID: uint64(i), Parent: -1, Name: "autofix.repair", Start: s, End: e})
		}
		p.docs++
		r.res.attempted++
		if err != nil {
			r.res.fail(1, "document %d: repair: %v", i, err)
			continue
		}
		p.counts[outcome]++
		if ref := r.ref[i]; outcome != ref.outcome || maphash.Bytes(r.seed, out) != ref.sum {
			r.res.fail(1, "document %d: repair gave %s, the reference pass %s or other bytes", i, outcome, ref.outcome)
		}
	}
	p.wall, p.cpu = time.Since(t0), selfCPU()-cpu0
	h1, err := readHostTimes()
	if err != nil {
		return p, err
	}
	p.ran = time.Duration(float64(p.wall) * unstolen(h0, h1))
	p.rss, err = peakRSSMiB(0)
	return p, err
}

// traced runs traced passes and the replays, and fills the per-layer
// metrics.
func (r *repairRun) traced(untracedCost float64) error {
	m := r.res.metrics
	rec := newRecorder()
	passes, err := r.timedPasses(rec)
	if err != nil {
		return err
	}
	var costs []float64
	for _, p := range passes {
		costs = append(costs, us(p.cpu)/float64(p.docs))
	}
	for _, o := range outcomes() {
		m["autofix."+o] = float64(passes[0].counts[o])
	}
	// Replay: each document's check alone, next to its first traced
	// repair; the repair layer's own cost is the difference.
	spans := rec.snapshot()
	first := map[uint64]int32{}
	for i, s := range spans {
		if _, ok := first[s.ID]; !ok {
			first[s.ID] = int32(i)
		}
	}
	docs := make([][]byte, 0, len(r.docs.refs))
	var repairUS, checkUS []float64
	for i := range r.docs.refs {
		doc, err := r.docs.read(i)
		if err != nil {
			return err
		}
		docs = append(docs, doc)
		t0 := now()
		if _, err := ruleCounts(r.checker, doc); err != nil {
			return err
		}
		d := now() - t0
		rs := spans[first[uint64(i)]]
		spans = append(spans, span{ID: uint64(i), Parent: first[uint64(i)], Name: "core.check (replay)", Start: rs.Start, End: rs.Start + d})
		repairUS = append(repairUS, float64(rs.dur())/1e3)
		checkUS = append(checkUS, float64(d)/1e3)
	}
	m["autofix.repair_us"] = mean(repairUS) - mean(checkUS)
	m["trace.overhead_us"] = steadyCost(costs) - untracedCost
	if err := replayParse(r.env.out, r.checker, docs, m); err != nil {
		return err
	}
	r.res.loads = []string{"htmlparse", "core", "autofix", "runtime", "trace"}

	w := r.env.out
	fmt.Fprintf(w, "repair traced: %d passes over %d documents\n", len(passes), len(r.docs.refs))
	printSpanTable(w, summarize(spans))
	fmt.Fprintf(w, "residual: repair %.2f us/doc - its first check %.2f = autofix.repair_us %.2f (%d documents)\n",
		mean(repairUS), mean(checkUS), m["autofix.repair_us"], len(docs))
	fmt.Fprintf(w, "outcomes per pass: %v\n", passes[0].counts)
	fmt.Fprintf(w, "tracing overhead: %.2f us/doc (traced %.2f, untraced %.2f)\n", m["trace.overhead_us"], steadyCost(costs), untracedCost)
	printMetrics(w, "repair per-layer (not loaded here: commoncrawl, warc, crawler, store, report, serve, loadgen):", perLayer, m)
	return nil
}
