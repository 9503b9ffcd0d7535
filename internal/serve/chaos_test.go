package serve

// The chaos acceptance suite: adversarial and overload scenarios over
// a real TCP listener, proving the guarantees ROADMAP item 3 claims —
// overload sheds fast instead of queueing without bound, slowloris
// clients are cut off, cancellation and shed requests never corrupt
// pooled state, and a drain finishes in-flight work. `make serve-chaos`
// runs this file race-enabled in CI.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hvscan/hvscan/internal/resilience"
)

// startChaos serves a new Server on a real loopback listener and
// returns its base URL plus an idempotent shutdown func (also run at
// cleanup) that triggers the graceful drain and reports Run's error.
func startChaos(t *testing.T, cfg Config) (string, *Server, func() error) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(ln.Addr().String(), s)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- RunListener(ctx, hs, ln, 10*time.Second, s.BeginDrain) }()
	var once sync.Once
	var serr error
	shutdown := func() error {
		once.Do(func() { cancel(); serr = <-done })
		return serr
	}
	t.Cleanup(func() { _ = shutdown() })
	return "http://" + ln.Addr().String(), s, shutdown
}

// slowDoc is big enough that one check takes real work (milliseconds),
// so a burst actually saturates a small worker pool.
var slowDoc = []byte("<!DOCTYPE html><body>" +
	strings.Repeat("<p class=a id=b>text <b>with <i>markup</i></b></p>", 20000))

func TestServeChaosOverloadBurstShedsFast(t *testing.T) {
	// A long request deadline isolates the variable under test: every
	// 503 in this storm is a pool shed, not a deadline shed (the race
	// detector slows checks past the default deadline otherwise).
	base, s, _ := startChaos(t, Config{
		TenantRate:     -1,
		RequestTimeout: 30 * time.Second,
		Admission:      resilience.AdmissionConfig{Workers: 2, Queue: 2, QueueWait: 50 * time.Millisecond},
	})
	client := &http.Client{}
	const burst = 64
	var ok200, shed503, other atomic.Int64
	var maxShedLatency atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			resp, err := client.Post(base+"/v1/check", "text/html", strings.NewReader(string(slowDoc)))
			if err != nil {
				other.Add(1)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusServiceUnavailable:
				shed503.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					other.Add(1)
				}
				if d := time.Since(t0); d.Nanoseconds() > maxShedLatency.Load() {
					maxShedLatency.Store(d.Nanoseconds())
				}
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("unexpected outcomes: %d (want only 200s and well-formed 503s)", other.Load())
	}
	if ok200.Load() == 0 {
		t.Fatal("overload burst: nothing got through")
	}
	if shed503.Load() == 0 {
		t.Fatalf("64-way burst against 2 workers shed nothing (ok=%d)", ok200.Load())
	}
	// The core overload guarantee: a shed answer is cheap and fast —
	// bounded by the queue wait plus scheduling slack, never by the
	// backlog's length. Serving the whole backlog would take tens of
	// seconds (64 heavy checks over 2 workers under the race
	// detector), so a 5s bound still separates the two regimes while
	// absorbing single-core scheduling jitter.
	if max := time.Duration(maxShedLatency.Load()); max > 5*time.Second {
		t.Fatalf("slowest shed took %s; sheds must not wait on the backlog", max)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight after burst = %d, want 0", s.InFlight())
	}
	// The pool still admits normal work.
	resp, err := client.Post(base+"/v1/check", "text/html", strings.NewReader("<p>ok</p>"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("request after burst: %v / %v", resp, err)
	}
	_ = resp.Body.Close()
}

func TestServeChaosSlowlorisBodyIsCutOff(t *testing.T) {
	base, s, _ := startChaos(t, Config{
		TenantRate:          -1,
		BodyProgressTimeout: 150 * time.Millisecond,
	})
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/check HTTP/1.1\r\nHost: %s\r\nContent-Length: 100000\r\nContent-Type: text/html\r\n\r\n", addr)
	_, _ = conn.Write([]byte("<p>"))
	// Trickle one byte well past the progress deadline; the server
	// must cut us off rather than hold a worker hostage.
	deadline := time.Now().Add(5 * time.Second)
	_ = conn.SetReadDeadline(deadline)
	status := ""
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		line, rerr := bufio.NewReader(conn).ReadString('\n')
		if rerr == nil {
			status = strings.TrimSpace(line)
		}
	}()
	for i := 0; i < 20; i++ {
		time.Sleep(400 * time.Millisecond)
		if _, werr := conn.Write([]byte("x")); werr != nil {
			break // server already severed the connection
		}
		select {
		case <-readDone:
			i = 20
		default:
		}
	}
	select {
	case <-readDone:
	case <-time.After(6 * time.Second):
		t.Fatal("slowloris connection neither answered nor closed")
	}
	if status != "" && !strings.Contains(status, "408") {
		t.Fatalf("slowloris got %q, want 408 or a severed connection", status)
	}
	// The stalled upload must not have leaked its worker slot.
	waitZeroInflight(t, s)
	resp, err := http.Post(base+"/v1/check", "text/html", strings.NewReader("<p>ok</p>"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("request after slowloris: %v / %v", resp, err)
	}
	_ = resp.Body.Close()
}

func TestServeChaosMidRequestDisconnect(t *testing.T) {
	base, s, _ := startChaos(t, Config{TenantRate: -1})
	addr := strings.TrimPrefix(base, "http://")
	for i := 0; i < 40; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// Promise a body, deliver half, vanish.
		fmt.Fprintf(conn, "POST /v1/check HTTP/1.1\r\nHost: %s\r\nContent-Length: 5000\r\nContent-Type: text/html\r\n\r\n", addr)
		_, _ = conn.Write([]byte(strings.Repeat("<p>half</p>", 20)))
		_ = conn.Close()
	}
	waitZeroInflight(t, s)
	resp, err := http.Post(base+"/v1/check", "text/html", strings.NewReader("<p>ok</p>"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("request after disconnect storm: %v / %v", resp, err)
	}
	_ = resp.Body.Close()
}

func TestServeChaosDeadlineBoundsHostileWork(t *testing.T) {
	// A deadline far smaller than the document's parse cost: the
	// in-parse cancellation must cut the check off and shed 503.
	base, _, _ := startChaos(t, Config{
		TenantRate:     -1,
		RequestTimeout: 1 * time.Millisecond,
		MaxBodyBytes:   8 << 20,
	})
	big := []byte("<!DOCTYPE html><body>" +
		strings.Repeat("<p a=b c=d>token soup</p>", 120000))
	resp, err := http.Post(base+"/v1/check", "text/html", strings.NewReader(string(big)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (deadline shed)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline shed without Retry-After")
	}
}

func TestServeChaosAdversarialNestingConcurrent(t *testing.T) {
	// The invariant under test is the depth cap, not shedding: give the
	// pool enough slots and deadline headroom that none of the 16
	// documents is pool- or deadline-shed under the race detector on a
	// small machine — every response must be the cap's 422.
	base, s, _ := startChaos(t, Config{
		TenantRate:     -1,
		MaxTreeDepth:   128,
		RequestTimeout: 30 * time.Second,
		Admission:      resilience.AdmissionConfig{Workers: 16, Queue: 16, QueueWait: 10 * time.Second},
	})
	deep := strings.Repeat("<div>", 30000)
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/check", "text/html", strings.NewReader(deep))
			if err != nil {
				bad.Add(1)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity {
				bad.Add(1)
			}
		}()
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d deep documents not answered with 422", bad.Load())
	}
	// Aborted parses recycled cleanly: a normal document still checks.
	resp, err := http.Post(base+"/v1/check", "text/html", strings.NewReader("<p>ok</p>"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("request after nesting storm: %v / %v", resp, err)
	}
	_ = resp.Body.Close()
	if s.InFlight() != 0 {
		t.Fatalf("in-flight after storm = %d", s.InFlight())
	}
}

func TestServeChaosGracefulDrainFinishesInFlight(t *testing.T) {
	base, _, shutdown := startChaos(t, Config{TenantRate: -1})
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := "<p id=a id=b>drain me</p>"
	fmt.Fprintf(conn, "POST /v1/check HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\nContent-Type: text/html\r\n\r\n", addr, len(body))
	_, _ = conn.Write([]byte(body[:5]))
	time.Sleep(150 * time.Millisecond) // let the handler block in the body read

	drainErr := make(chan error, 1)
	go func() { drainErr <- shutdown() }()
	time.Sleep(150 * time.Millisecond) // drain begins with us in flight

	if _, err := conn.Write([]byte(body[5:])); err != nil {
		t.Fatalf("drain severed an in-flight request's body: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no response for the in-flight request: %v", err)
	}
	if !strings.Contains(line, "200") {
		t.Fatalf("in-flight request got %q during drain, want 200", strings.TrimSpace(line))
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	// The listener is gone: new connections are refused.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		_ = c.Close()
		t.Fatal("listener still accepting after drain completed")
	}
}

// TestServeChaosLeakSweep drives ten rounds of traffic and checks that
// goroutines and heap stay flat, end to end through the HTTP layer.
func TestServeChaosLeakSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("leak sweep is seconds-long")
	}
	base, s, _ := startChaos(t, Config{TenantRate: -1})
	client := &http.Client{}
	// ~60 KiB of markup: heavy enough to exercise the pooled buffers
	// and parser, light enough for 600+ serial round trips.
	sweepDoc := slowDoc[:60<<10]
	round := func(n int) {
		for i := 0; i < n; i++ {
			body := sweepDoc
			if i%3 == 0 {
				body = []byte(violatingHTML)
			}
			resp, err := client.Post(base+"/v1/check", "text/html", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	}
	settle := func() (goroutines int, heap uint64) {
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine(), ms.HeapAlloc
	}
	round(30) // warm pools and conn cache before baselining
	g0, h0 := settle()
	for r := 0; r < 10; r++ {
		round(60)
	}
	g1, h1 := settle()
	if g1 > g0+8 {
		t.Fatalf("goroutines grew across sweep: %d -> %d", g0, g1)
	}
	const heapSlack = 16 << 20
	if h1 > h0+heapSlack {
		t.Fatalf("heap grew across sweep: %d -> %d bytes", h0, h1)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight after sweep = %d", s.InFlight())
	}
}

// TestServeChaosShedNeverCorruptsPool interleaves admissible, shed,
// oversized, and malformed requests against a one-worker pool and
// proves the accounting lands back at zero.
func TestServeChaosShedNeverCorruptsPool(t *testing.T) {
	base, s, _ := startChaos(t, Config{
		TenantRate:   -1,
		MaxBodyBytes: 32 << 10,
		Admission:    resilience.AdmissionConfig{Workers: 1, Queue: resilience.NoQueue, QueueWait: 50 * time.Millisecond},
	})
	client := &http.Client{}
	bodies := []string{
		"<p>fine</p>",
		string(slowDoc[:20<<10]),
		strings.Repeat("y", 64<<10), // oversized -> 413
		"<p>\xff\xfebad</p>",        // not UTF-8 -> 415
	}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := client.Post(base+"/v1/check", "text/html", strings.NewReader(bodies[(i+j)%len(bodies)]))
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	waitZeroInflight(t, s)
	if q := s.pool.Queued(); q != 0 {
		t.Fatalf("queued after storm = %d, want 0", q)
	}
	resp, err := client.Post(base+"/v1/check", "text/html", strings.NewReader("<p>ok</p>"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("request after storm: %v / %v", resp, err)
	}
	_ = resp.Body.Close()
}

// waitZeroInflight polls briefly: the server counts a request done a
// hair after the response bytes leave, so an immediate read races.
func waitZeroInflight(t *testing.T, s *Server) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if s.InFlight() == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("in-flight stuck at %d", s.InFlight())
}
