package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The serve workload: an open loop of POST /v1/check at a fixed rate to
// the checking service in its own process. Latency runs from each
// request's due time to its last response byte, so a stalled sender or a
// queue on the two connections shows as latency rather than vanishing.

const (
	serveRate   = 1500 // requests per second, ~40% of 2-connection capacity
	serveConns  = 2
	serveWarmup = 2 * time.Second
	// spanHeader carries a request's span ID to the traced server.
	spanHeader = "X-Perfbench-Span"
)

// serveChild is the server process: the service behind HTTP on a
// loopback port, whose address it prints on standard output. It serves
// until standard input closes, then drains, writes its spans (when
// traced) and prints its GC count.
func serveChild(spansPath string) error {
	h := newServer()
	var rec *recorder
	if spansPath != "" {
		rec = newRecorder()
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := now()
			inner.ServeHTTP(w, r)
			id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
			if err == nil {
				rec.add(span{ID: id, Parent: -1, Name: "serve.handler", Start: t0, End: now()})
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", ln.Addr())
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer cancel()
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent closes the pipe
		cancel()
	}()
	if err := runServer(ctx, ln, h); err != nil {
		return err
	}
	if rec != nil {
		if err := saveSpans(spansPath, rec.snapshot()); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("numgc %d\n", ms.NumGC)
	return nil
}

// serverProc is a started server process.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.Closer
	out   *bufio.Reader
	url   string
	ready time.Duration // from start until /readyz answered 200
}

// startServer starts the server process and waits until it is ready.
func startServer(spansPath string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-serve-child"}
	if spansPath != "" {
		args = append(args, "-spans", spansPath)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := p.out.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		p.kill()
		return nil, fmt.Errorf("server process did not report its address: %q %v", line, err)
	}
	p.url = "http://" + addr
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			p.kill()
			return nil, errors.New("server process not ready after 30s")
		}
		time.Sleep(time.Millisecond)
	}
	p.ready = time.Since(t0)
	client.CloseIdleConnections()
	return p, nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// stop drains the server and waits for it to exit; it returns the
// server's GC count.
func (p *serverProc) stop() (uint32, error) {
	p.stdin.Close()
	type exit struct {
		gcs uint32
		err error
	}
	done := make(chan exit, 1)
	go func() {
		var x exit
		rest, err := io.ReadAll(p.out)
		if err == nil {
			_, err = fmt.Sscanf(strings.TrimSpace(string(rest)), "numgc %d", &x.gcs)
		}
		x.err = errors.Join(err, p.cmd.Wait())
		done <- x
	}()
	select {
	case x := <-done:
		return x.gcs, x.err
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		return 0, errors.New("server process did not stop within 20s")
	}
}

// serveInputs are the bodies the load generator sends, with their truth.
type serveInputs struct {
	bodies [][]byte
	truth  []pageTruth
	order  []int // body of request i is order[i%len(order)]
}

func loadServeInputs(dir string, seed int64) (*serveInputs, error) {
	docs, err := openDocs(dir)
	if err != nil {
		return nil, err
	}
	defer docs.Close()
	in := &serveInputs{}
	for i, r := range docs.refs {
		b, err := docs.read(i)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
		in.truth = append(in.truth, r.Truth)
	}
	in.order = rand.New(rand.NewSource(seed)).Perm(len(in.bodies))
	return in, nil
}

// sample is one request of the open loop.
type sample struct {
	id, body int
	// due, sent and done are offsets from the loop's start.
	due, sent, done time.Duration
	status          int
}

// loadRun is one phase of the open loop.
type loadRun struct {
	start   time.Time
	samples []sample
	// first holds the first response to each body, for the output
	// check; a later response that differs from it is kept in variants.
	first    map[int][]byte
	variants []variant
}

type variant struct {
	body int
	resp []byte
}

// runLoad offers requests at rate over conns connections for dur. The
// schedule is fixed in advance: request i is due at start + i/rate, and
// each connection takes the next due request as soon as it is free, so
// when both are busy the wait counts into the latency. firstID numbers
// the requests, so span IDs stay unique across phases.
func runLoad(ctx context.Context, url string, in *serveInputs, rate float64, conns int, dur time.Duration, firstID int, traced bool) *loadRun {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(dur / interval)
	lr := &loadRun{start: time.Now(), samples: make([]sample, total), first: map[int][]byte{}}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= total || ctx.Err() != nil {
					return
				}
				s := &lr.samples[i]
				s.id = firstID + i
				s.body = in.order[s.id%len(in.order)]
				s.due = time.Duration(i) * interval
				sleepUntil(lr.start, s.due)
				s.sent = time.Since(lr.start)
				buf.Reset()
				s.status = post(ctx, client, url, in.bodies[s.body], s.id, traced, &buf)
				s.done = time.Since(lr.start)
				if s.status != http.StatusOK {
					continue
				}
				mu.Lock()
				if first, ok := lr.first[s.body]; !ok {
					lr.first[s.body] = bytes.Clone(buf.Bytes())
				} else if !bytes.Equal(first, buf.Bytes()) {
					lr.variants = append(lr.variants, variant{s.body, bytes.Clone(buf.Bytes())})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lr
}

// sleepSlack is about how late a nanosleep wakes up on Linux.
const sleepSlack = 50 * time.Microsecond

// sleepUntil waits until offset due after start. The Go runtime's timers
// wake up to a millisecond late, more than the gap between two requests,
// so the wait is a nanosleep of the calling thread, which wakes within
// tens of microseconds.
func sleepUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start) - sleepSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only ends early
	}
}

// post sends one check request and reads the whole response into buf. It
// returns the status, or 0 for a transport error.
func post(ctx context.Context, client *http.Client, url string, body []byte, id int, traced bool, buf *bytes.Buffer) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+checkRoute, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "text/html; charset=utf-8")
	if traced {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

// check verifies the phase's responses: every request must get a 200
// whose rule IDs pass the ground truth of its body. It returns the
// failed request count.
func (lr *loadRun) check(in *serveInputs) int {
	bad := map[int]bool{}
	judge := func(body int, resp []byte) {
		var cr checkResponse
		if err := json.Unmarshal(resp, &cr); err != nil {
			bad[body] = true
			fmt.Fprintf(os.Stderr, "perfbench: check failed: body %d: unreadable response: %v\n", body, err)
			return
		}
		if msg := judgeRules(in.truth[body], cr.RuleHits); msg != "" {
			bad[body] = true
			fmt.Fprintf(os.Stderr, "perfbench: check failed: body %d: %s\n", body, msg)
		}
	}
	for body, resp := range lr.first {
		judge(body, resp)
	}
	for _, v := range lr.variants {
		judge(v.body, v.resp)
	}
	failed := 0
	for _, s := range lr.samples {
		if s.status != http.StatusOK || bad[s.body] {
			failed++
		}
	}
	return failed
}

// judgeRules applies the generator↔checker contract to one page's
// reported rules: every planted rule is reported, and every reported
// rule is planted or explained. It returns "" when they pass.
func judgeRules(t pageTruth, hits map[string]int) string {
	allowed := map[string]bool{}
	for _, r := range t.Allowed {
		allowed[r] = true
	}
	for _, r := range t.Planted {
		if hits[r] == 0 {
			return "planted " + r + " not reported"
		}
	}
	var extra []string
	for r, n := range hits {
		if n > 0 && !allowed[r] {
			extra = append(extra, r)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "unexpected " + strings.Join(extra, ",")
	}
	return ""
}

// latencies returns the due-to-done latencies (ms) of the 200 responses,
// and how late each request was sent (ms).
func (lr *loadRun) latencies() (lat, late []float64) {
	for _, s := range lr.samples {
		late = append(late, ms(s.sent-s.due))
		if s.status == http.StatusOK {
			lat = append(lat, ms(s.done-s.due))
		}
	}
	return lat, late
}

// elapsed is the phase's length: from its start to the last response.
func (lr *loadRun) elapsed() time.Duration {
	var last time.Duration
	for _, s := range lr.samples {
		last = max(last, s.done)
	}
	return last
}

func (lr *loadRun) ok() int {
	n := 0
	for _, s := range lr.samples {
		if s.status == http.StatusOK {
			n++
		}
	}
	return n
}

func runServe(e *runEnv) (*result, error) {
	dir, err := fixtureDir(e.cache, "serve", e.seed, genServe)
	if err != nil {
		return nil, err
	}
	in, err := loadServeInputs(dir, e.seed)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	m := res.metrics
	var setups []float64
	var srv *serverProc
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return nil, err
			}
		}
		if srv, err = startServer(""); err != nil {
			return nil, err
		}
		setups = append(setups, srv.ready.Seconds())
	}
	ph, err := servePhase(srv, in, e.window, false)
	if err != nil {
		return nil, err
	}
	res.attempted += len(ph.run.samples)
	res.failed += ph.failed
	lat, late := ph.run.latencies()
	m["setup_s"] = median(setups)
	m["pages_per_s"] = float64(ph.run.ok()) / ph.run.elapsed().Seconds()
	m["cpu_us_per_page"] = steadyCost(ph.segCost)
	m["peak_rss_mib"] = steadyCost(ph.segRSS)
	m["success_ratio"] = 1 - float64(res.failed)/float64(res.attempted)
	fmt.Fprintf(e.out, "serve: %d requests due at %d/s over %d connections, %d answered 200, %d set-ups\n",
		len(ph.run.samples), serveRate, serveConns, ph.run.ok(), len(setups))
	if e.trace {
		n := len(lat)
		m["serve.p50_ms"] = steadyCost(ph.segP50)
		m["serve.p99_ms"] = quantile(lat, 0.99)
		m["loadgen.late_p99_ms"] = quantile(late, 0.99)
		m["serve.shed_ratio"] = float64(len(ph.run.samples)-ph.run.ok()) / float64(len(ph.run.samples))
		m["runtime.gc_per_kpage"] = float64(ph.gcs) / float64(ph.served) * 1000
		fmt.Fprintf(e.out, "serve.p99_ms %.3f over %d samples, %d beyond; loadgen.late_p99_ms %.3f over %d, %d beyond\n",
			m["serve.p99_ms"], n, beyond(n, 0.99), m["loadgen.late_p99_ms"], len(late), beyond(len(late), 0.99))
		if err := serveTraced(e, in, res); err != nil {
			return nil, err
		}
	}
	printMetrics(e.out, "serve end-to-end:", endToEnd, m)
	return res, nil
}

// servePhaseResult is one server process's timed phase after its warm-up.
type servePhaseResult struct {
	run    *loadRun
	failed int
	// segCost, segP50 and segRSS are each second's server CPU per 200
	// response (µs), median latency (ms) and peak resident set (MiB).
	segCost, segP50, segRSS []float64
	gcs                     uint32
	served                  int // requests the server answered over its life
}

// servePhase warms the server up, runs the timed open loop, checks the
// responses and stops the server.
func servePhase(srv *serverProc, in *serveInputs, window time.Duration, traced bool) (*servePhaseResult, error) {
	ctx := context.Background()
	// The load generator allocates per request; a larger heap target
	// keeps its collections from taking a CPU the server needs.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	warm := runLoad(ctx, srv.url, in, serveRate, serveConns, serveWarmup, 0, traced)
	stop := make(chan struct{})
	sampled := make(chan cpuSamples, 1)
	go sampleCPU(srv.pid(), stop, sampled)
	run := runLoad(ctx, srv.url, in, serveRate, serveConns, window, len(warm.samples), traced)
	close(stop)
	cpus := <-sampled
	if cpus.err != nil {
		srv.kill()
		return nil, cpus.err
	}
	gcs, err := srv.stop()
	if err != nil {
		return nil, err
	}
	ph := &servePhaseResult{
		run: run, failed: run.check(in), gcs: gcs,
		served: len(warm.samples) + len(run.samples),
	}
	for k := 0; k+1 < len(cpus.at); k++ {
		from, to := time.Duration(k)*time.Second, time.Duration(k+1)*time.Second
		ok, lat := 0, []float64{}
		for _, s := range run.samples {
			if s.status != http.StatusOK {
				continue
			}
			if s.done >= from && s.done < to {
				ok++
			}
			if s.due >= from && s.due < to {
				lat = append(lat, ms(s.done-s.due))
			}
		}
		if ok > 0 && len(lat) > 0 {
			ph.segCost = append(ph.segCost, us(cpus.at[k+1]-cpus.at[k])/float64(ok))
			ph.segP50 = append(ph.segP50, median(lat))
			ph.segRSS = append(ph.segRSS, cpus.rss[k])
		}
	}
	if len(ph.segCost) == 0 {
		return nil, errors.New("timed phase shorter than one segment")
	}
	return ph, nil
}

// cpuSamples is a process's CPU time at the start of each second, and
// its peak resident set (MiB) during each second.
type cpuSamples struct {
	at  []time.Duration
	rss []float64
	err error
}

// sampleCPU reads a process's CPU time and peak resident set now and
// every second after, until stop closes.
func sampleCPU(pid int, stop <-chan struct{}, out chan<- cpuSamples) {
	var cs cpuSamples
	defer func() { out <- cs }()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		c, err := procCPU(pid)
		if err == nil && len(cs.at) > 0 {
			var rss float64
			rss, err = peakRSSMiB(pid)
			cs.rss = append(cs.rss, rss)
		}
		if err == nil {
			err = resetPeakRSS(pid)
		}
		if err != nil {
			cs.err = err
			return
		}
		cs.at = append(cs.at, c)
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// serveTraced runs a traced server and fills the serve per-layer metrics.
func serveTraced(e *runEnv, in *serveInputs, res *result) error {
	m := res.metrics
	spansPath := filepath.Join(e.work, "server-spans.jsonl")
	srv, err := startServer(spansPath)
	if err != nil {
		return err
	}
	ph, err := servePhase(srv, in, e.window, true)
	if err != nil {
		return err
	}
	serverSpans, err := loadSpans(spansPath)
	if err != nil {
		return err
	}
	// Client spans first, each server span parented to its request.
	byID := map[uint64]int32{}
	var spans []span
	for _, s := range ph.run.samples {
		if s.status == 0 {
			continue
		}
		byID[uint64(s.id)] = int32(len(spans))
		spans = append(spans, span{ID: uint64(s.id), Parent: -1, Name: "loadgen.request",
			Start: ph.run.start.Add(s.sent).UnixNano(), End: ph.run.start.Add(s.done).UnixNano()})
	}
	handler := map[uint64]float64{}
	for _, s := range serverSpans {
		if p, ok := byID[s.ID]; ok {
			s.Parent = p
			spans = append(spans, s)
			handler[s.ID] = float64(s.dur()) / 1e3
		}
	}
	// Replay each body once through the server's check path, without
	// HTTP, admission or JSON.
	c := newChecker()
	replay := map[int]float64{}
	var handlerUS, overhead, transport []float64
	for _, s := range ph.run.samples {
		h, ok := handler[uint64(s.id)]
		if !ok {
			continue
		}
		if _, ok := replay[s.body]; !ok {
			t0 := time.Now()
			if err := serverCheck(c, in.bodies[s.body]); err != nil {
				return err
			}
			replay[s.body] = us(time.Since(t0))
		}
		handlerUS = append(handlerUS, h)
		overhead = append(overhead, h-replay[s.body])
		transport = append(transport, us(s.done-s.sent)-h)
	}
	if len(handlerUS) == 0 {
		return errors.New("traced server recorded no handler spans")
	}
	m["serve.handler_us"] = median(handlerUS)
	m["serve.overhead_us"] = median(overhead)
	m["serve.transport_us"] = median(transport)
	m["trace.overhead_us"] = steadyCost(ph.segCost) - m["cpu_us_per_page"]
	docs := make([][]byte, 0, len(replay))
	for b := range replay {
		docs = append(docs, in.bodies[b])
	}
	if err := replayParse(e.out, c, docs, m); err != nil {
		return err
	}
	res.loads = []string{"htmlparse", "core", "serve", "loadgen", "runtime", "trace"}
	res.attempted += len(ph.run.samples)
	res.failed += ph.failed

	w := e.out
	fmt.Fprintf(w, "serve traced: %d requests, %d handler spans, %d bodies replayed\n", len(ph.run.samples), len(handlerUS), len(replay))
	printSpanTable(w, summarize(spans))
	fmt.Fprintf(w, "residual: handler p50 %.2f us = check path + serve.overhead_us %.2f (median per request); transport %.2f us\n",
		m["serve.handler_us"], m["serve.overhead_us"], m["serve.transport_us"])
	fmt.Fprintf(w, "tracing overhead: %.2f us/request of server CPU\n", m["trace.overhead_us"])
	printMetrics(w, "serve per-layer (not loaded here: autofix, commoncrawl, warc, crawler, store, report):", perLayer, m)
	return nil
}
