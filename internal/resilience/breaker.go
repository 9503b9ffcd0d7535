package resilience

import (
	"errors"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// StateClosed: requests flow normally; consecutive retryable
	// failures are counted.
	StateClosed BreakerState = iota
	// StateHalfOpen: the cooldown elapsed; a limited number of probe
	// requests test whether the backend recovered.
	StateHalfOpen
	// StateOpen: the backend is considered down; requests are shed
	// without being attempted until the cooldown elapses.
	StateOpen
)

// String returns the state label used in logs and metrics docs.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	}
	return "unknown"
}

// ErrBreakerOpen is what Allow (and Do) return while the breaker sheds
// load, under errors.Is: the shed error also unwraps to the failure that
// opened the breaker, so a caller that reports the shed reports the
// backend's fault rather than the breaker. It classifies as retryable:
// the caller's backoff naturally spaces out re-probes of a recovering
// backend.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// openError is the shed error of a breaker opened by cause.
type openError struct{ cause error }

func (e *openError) Error() string   { return ErrBreakerOpen.Error() + ": " + e.cause.Error() }
func (e *openError) Unwrap() []error { return []error{ErrBreakerOpen, e.cause} }

// BreakerConfig tunes a Breaker. The zero value gives sane defaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive retryable failures open
	// the breaker (default 8). Permanent failures (a 404 is a healthy
	// backend saying no) and successes reset the count.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before allowing
	// half-open probes (default 15s).
	Cooldown time.Duration
	// HalfOpenProbes is how many concurrent probe calls the half-open
	// state admits (default 1).
	HalfOpenProbes int
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// OnStateChange, if set, observes every transition. Called outside
	// the breaker's lock is NOT guaranteed — keep it non-blocking
	// (metric updates, not I/O).
	OnStateChange func(from, to BreakerState)
}

// Breaker is a circuit breaker: after a run of consecutive retryable
// failures it opens and sheds calls for a cooldown, then lets a probe
// through (half-open) and closes again on success. One Breaker guards
// one backend; all methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive retryable failures while closed
	openedAt time.Time // when the breaker last opened
	shed     error     // what Allow returns while open: ErrBreakerOpen and its cause
	probes   int       // in-flight probes while half-open
}

// NewBreaker builds a breaker from cfg, applying defaults for zero
// fields.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 8
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 15 * time.Second
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// State returns the breaker's current position (open flips to half-open
// lazily, on the first Allow after the cooldown).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transition moves the breaker to the target state and fires the hook.
func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from, to)
	}
}

// Allow asks whether a call may proceed; it returns an error matching
// ErrBreakerOpen when the call should be shed. Every Allow that returns
// nil MUST be paired with exactly one Record — the half-open state
// counts in-flight probes.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return b.shed
		}
		b.transition(StateHalfOpen)
		b.probes = 0
		fallthrough
	case StateHalfOpen:
		if b.probes >= b.cfg.HalfOpenProbes {
			return b.shed
		}
		b.probes++
	}
	return nil
}

// Record reports the outcome of an allowed call. Only retryable
// failures count against the backend's health: a permanent error is the
// backend answering (unfavourably), and a fatal error is our own
// configuration, not the backend's state.
func (b *Breaker) Record(err error) {
	failure := err != nil && Classify(err) == ClassRetryable
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		if !failure {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.open(err)
		}
	case StateHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if failure {
			b.open(err)
			return
		}
		b.transition(StateClosed)
		b.failures = 0
	case StateOpen:
		// A late Record from a call allowed before the trip: the
		// breaker already decided, nothing to update.
	}
}

// open trips the breaker on cause, the retryable failure that tipped
// it; the caller holds the lock.
func (b *Breaker) open(cause error) {
	b.shed = Retryable(&openError{cause: cause})
	b.transition(StateOpen)
	b.openedAt = b.cfg.Now()
	b.failures = 0
	b.probes = 0
}

// Do guards one call: shed if the breaker is open, otherwise run f and
// record its outcome. The shed error matches ErrBreakerOpen.
func (b *Breaker) Do(f func() error) error {
	if err := b.Allow(); err != nil {
		return err
	}
	err := f()
	b.Record(err)
	return err
}
