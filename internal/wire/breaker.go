package wire

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrCircuitOpen is returned by Pool.Get and Pool.Call while an
// endpoint's circuit breaker is open: the endpoint has failed
// repeatedly and callers fail fast instead of stalling on it.
var ErrCircuitOpen = errors.New("wire: circuit open")

// BreakerPolicy configures the per-endpoint circuit breakers of a Pool.
type BreakerPolicy struct {
	// Threshold is the number of consecutive dial/transport failures
	// that opens the circuit. Values below 1 disable the breaker.
	Threshold int
	// Cooldown is how long an open circuit rejects callers before
	// allowing a single half-open probe.
	Cooldown time.Duration
}

// DefaultBreakerPolicy returns the breaker configuration of a fresh
// Pool.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{Threshold: 8, Cooldown: 2 * time.Second}
}

// enabled reports whether the policy describes an active breaker.
func (bp BreakerPolicy) enabled() bool { return bp.Threshold >= 1 }

// Breaker states: closed (healthy), open (failing fast), half-open
// (one probe in flight after the cooldown).
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// BreakerState is the observable state of one endpoint's breaker.
type BreakerState string

// Observable breaker states (Pool.BreakerState).
const (
	BreakerClosed   BreakerState = "closed"
	BreakerOpen     BreakerState = "open"
	BreakerHalfOpen BreakerState = "half-open"
)

// Breaker is a circuit breaker (closed / open / half-open, one
// half-open probe per cooldown). The Pool keeps one per endpoint;
// callers tracking the health of resources the Pool does not see — the
// trader's federation links — keep their own. All methods are
// goroutine-safe; time is injected by the caller for testability.
type Breaker struct {
	policy BreakerPolicy
	// onTransition, when set, observes every state change (metrics). It
	// is invoked outside the breaker lock.
	onTransition func(to BreakerState)

	mu       sync.Mutex
	state    int
	fails    int       // consecutive failures while closed
	openedAt time.Time // instant of the closed/half-open -> open transition
}

// NewBreaker returns a closed breaker with the given policy. A policy
// with Threshold < 1 disables it (Allow always admits).
func NewBreaker(policy BreakerPolicy) *Breaker {
	return &Breaker{policy: policy}
}

// notify reports a state change to the transition observer.
func (b *Breaker) notify(to BreakerState) {
	if b.onTransition != nil {
		b.onTransition(to)
	}
}

// Allow decides whether a caller may use the endpoint now. While open
// it returns ErrCircuitOpen until the cooldown elapses, then admits
// exactly one caller as the half-open probe; further callers keep
// failing fast until the probe reports success or failure.
func (b *Breaker) Allow(now time.Time) error {
	if !b.policy.enabled() {
		return nil
	}
	b.mu.Lock()
	switch b.state {
	case breakerClosed:
		b.mu.Unlock()
		return nil
	case breakerHalfOpen:
		b.mu.Unlock()
		return fmt.Errorf("%w: probe in flight", ErrCircuitOpen)
	default: // open
		if now.Sub(b.openedAt) < b.policy.Cooldown {
			b.mu.Unlock()
			return fmt.Errorf("%w: cooling down", ErrCircuitOpen)
		}
		b.state = breakerHalfOpen // this caller is the probe
		b.mu.Unlock()
		b.notify(BreakerHalfOpen)
		return nil
	}
}

// Success records a healthy interaction (successful dial or call, or
// any response proving the endpoint is alive) and closes the circuit.
func (b *Breaker) Success() {
	if !b.policy.enabled() {
		return
	}
	b.mu.Lock()
	changed := b.state != breakerClosed
	b.state = breakerClosed
	b.fails = 0
	b.mu.Unlock()
	if changed {
		b.notify(BreakerClosed)
	}
}

// shed records a StatusOverloaded response. A shed is weighed
// distinctly from both success and failure: the endpoint answered, so
// it is provably alive — a half-open probe that gets shed closes the
// circuit rather than reopening it — but an overloaded answer is not
// a healthy interaction, so it does not forgive the consecutive-failure
// streak the way Success does. A flapping endpoint that alternates
// connection failures with sheds still trips the breaker.
func (b *Breaker) shed() {
	if !b.policy.enabled() {
		return
	}
	b.mu.Lock()
	changed := b.state == breakerHalfOpen || b.state == breakerOpen
	if changed {
		// Liveness proof: stop failing fast so callers can back off on
		// the server's own hint instead of the breaker's cooldown.
		b.state = breakerClosed
	}
	b.mu.Unlock()
	if changed {
		b.notify(BreakerClosed)
	}
}

// Failure records a dial/transport failure. It returns true when this
// failure opened the circuit (for pool statistics).
func (b *Breaker) Failure(now time.Time) bool {
	if !b.policy.enabled() {
		return false
	}
	b.mu.Lock()
	opened := false
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: back to open, restart the cooldown.
		b.state = breakerOpen
		b.openedAt = now
		opened = true
	case breakerClosed:
		b.fails++
		if b.fails >= b.policy.Threshold {
			b.state = breakerOpen
			b.openedAt = now
			opened = true
		}
	}
	b.mu.Unlock()
	if opened {
		b.notify(BreakerOpen)
	}
	return opened
}

// State reports the observable state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return BreakerOpen
	case breakerHalfOpen:
		return BreakerHalfOpen
	}
	return BreakerClosed
}
