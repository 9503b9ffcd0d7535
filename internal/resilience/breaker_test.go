package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/hvscan/hvscan/internal/obs"
)

// fakeClock is a manually advanced clock for breaker cooldown tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

var errDown = errors.New("backend down")

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Minute, Now: clk.now})
	for i := 0; i < 2; i++ {
		if err := b.Do(func() error { return errDown }); !errors.Is(err, errDown) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if b.State() != StateClosed {
		t.Fatal("breaker opened below threshold")
	}
	_ = b.Do(func() error { return errDown })
	if b.State() != StateOpen {
		t.Fatal("breaker did not open at threshold")
	}
	if err := b.Do(func() error { t.Fatal("call ran while open"); return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3})
	for i := 0; i < 10; i++ {
		_ = b.Do(func() error { return errDown })
		_ = b.Do(func() error { return errDown })
		_ = b.Do(func() error { return nil }) // breaks the run
	}
	if b.State() != StateOpen {
		// 2 failures + success, repeated: never 3 consecutive.
		return
	}
	t.Fatal("interleaved successes should keep the breaker closed")
}

func TestBreakerPermanentErrorsAreNotFailures(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2})
	for i := 0; i < 10; i++ {
		_ = b.Do(func() error { return Permanent(errDown) })
	}
	if b.State() != StateClosed {
		t.Fatal("permanent (404-style) errors tripped the breaker")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute, Now: clk.now})
	_ = b.Do(func() error { return errDown })
	if b.State() != StateOpen {
		t.Fatal("setup: breaker should be open")
	}
	clk.advance(61 * time.Second)
	// First call after the cooldown is the probe; success closes.
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if b.State() != StateClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute, Now: clk.now})
	_ = b.Do(func() error { return errDown })
	clk.advance(61 * time.Second)
	_ = b.Do(func() error { return errDown }) // failed probe
	if b.State() != StateOpen {
		t.Fatal("failed probe must reopen the breaker")
	}
	// And the fresh cooldown starts from the reopen, not the first trip.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("reopened breaker admitted a call inside the new cooldown")
	}
}

func TestBreakerHalfOpenLimitsProbes(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, HalfOpenProbes: 1, Now: clk.now})
	_ = b.Do(func() error { return errDown })
	clk.advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	b.Record(nil) // probe succeeds
	if b.State() != StateClosed {
		t.Fatal("probe success did not close")
	}
}

func TestBreakerConcurrentUseUnderRace(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 5, Cooldown: time.Millisecond, Now: clk.now})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = b.Do(func() error {
					if (i+w)%3 == 0 {
						return errDown
					}
					return nil
				})
				if i%50 == 0 {
					clk.advance(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	// No assertion beyond "no race, no deadlock, state is valid".
	if s := b.State(); s != StateClosed && s != StateOpen && s != StateHalfOpen {
		t.Fatalf("invalid state %v", s)
	}
}

func TestMetricsHooks(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)

	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute, Now: clk.now, OnStateChange: m.BreakerHook()})
	_ = b.Do(func() error { return errDown })
	_ = b.Do(func() error { return errDown })
	if got := m.BreakerTrips.Value(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}
	if got := m.BreakerState.Value(); got != int64(StateOpen) {
		t.Fatalf("state gauge = %d, want %d", got, StateOpen)
	}

	p := Policy{MaxAttempts: 3, OnRetry: m.PolicyHook()}
	_ = p.Do(context.Background(), func() error { return errDown })
	if got := m.Retries.Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}

	m.ObserveError(ClassPermanent)
	if got := m.Errors[ClassPermanent].Value(); got != 1 {
		t.Fatalf("permanent errors = %d, want 1", got)
	}
}

// TestBreakerShedCarriesOpeningFailure: the shed error matches
// ErrBreakerOpen and also unwraps to the failure that opened the breaker,
// still classifying as retryable. A reopen from half-open carries the
// failed probe's error instead.
func TestBreakerShedCarriesOpeningFailure(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute, Now: clk.now})
	errFlaky := errors.New("flaky")
	_ = b.Do(func() error { return errFlaky })
	_ = b.Do(func() error { return errDown })
	err := b.Allow()
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, errDown) {
		t.Fatalf("shed error %v, want ErrBreakerOpen wrapping the opening failure", err)
	}
	if errors.Is(err, errFlaky) {
		t.Fatalf("shed error %v wraps a failure that did not open the breaker", err)
	}
	if c := Classify(err); c != ClassRetryable {
		t.Fatalf("Classify(shed) = %v, want retryable", c)
	}
	if got, want := err.Error(), ErrBreakerOpen.Error()+": "+errDown.Error(); got != want {
		t.Fatalf("shed message %q, want %q", got, want)
	}

	clk.advance(time.Minute)
	errProbe := Retryable(errors.New("probe failed"))
	_ = b.Do(func() error { return errProbe })
	err = b.Allow()
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, errProbe) || errors.Is(err, errDown) {
		t.Fatalf("after a failed probe the shed error is %v, want ErrBreakerOpen wrapping the probe's failure", err)
	}
	if c := Classify(err); c != ClassRetryable {
		t.Fatalf("Classify(shed after probe) = %v, want retryable", c)
	}
}
