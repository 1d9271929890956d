package wire

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// CallPolicy bounds one logical RPC performed through a Pool: how long
// each attempt may take and how many attempts are made (retries are
// spaced by a fixed jittered exponential backoff, see backoff). The
// policy retries only *connection-class* failures
// (dial failures, broken connections, per-attempt timeouts). Remote
// application errors are never retried: the request reached a handler
// that may have had side effects (see Transient). Note that a
// per-attempt *timeout* is retried even though the attempt may have
// executed server-side with only the response late — which is why
// Pool.Call is reserved for idempotent operations.
type CallPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 mean 1: a single attempt, no retries.
	MaxAttempts int
	// AttemptTimeout bounds each individual attempt; 0 leaves attempts
	// bounded only by the caller's context.
	AttemptTimeout time.Duration
}

// defaultCallPolicy returns the policy a fresh Pool uses: three
// attempts, each bounded so one black-holed endpoint cannot absorb a
// caller for long.
func defaultCallPolicy() CallPolicy {
	return CallPolicy{MaxAttempts: 3, AttemptTimeout: 5 * time.Second}
}

// Retry spacing: the delay before the first retry, doubled by each
// further retry up to the cap.
const (
	backoffBase = 20 * time.Millisecond
	backoffMax  = 500 * time.Millisecond
)

// attempts normalises MaxAttempts.
func (p CallPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay before retry number retry (1-based): up to
// half of it is randomised away, which desynchronises retry storms from
// many clients hitting the same recovering endpoint.
func backoff(retry int) time.Duration {
	d := backoffBase
	for i := 1; i < retry && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	return d - time.Duration(rand.Int63n(int64(d)/2+1))
}

// attemptCtx derives the per-attempt context.
func (p CallPolicy) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.AttemptTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, p.AttemptTimeout)
}

// Transient reports whether err is a connection-class failure that a
// fresh attempt (possibly on a fresh connection) may repair:
//
//   - dial failures and broken/closed connections never reached a
//     handler — always safe to retry;
//   - per-attempt timeouts (context.DeadlineExceeded) are classified
//     transient too, but with a caveat: the request may have been fully
//     written and executed server-side with only the response late, so
//     a retry can execute the operation twice. This is why Pool.Call —
//     the only place this classification drives retries — is reserved
//     for idempotent operations (Describe, Ping, binding setup);
//   - StatusBadRequest remote errors were rejected by the server
//     *before* dispatch (the body could not be decoded), so the
//     operation did not run — safe to retry, and exactly what an
//     in-flight corruption looks like from the caller;
//   - StatusOverloaded responses were shed *before* dispatch under
//     admission control (or during a drain): the handler provably did
//     not run, so retrying — after the server's retry-after hint — is
//     always safe;
//   - StatusDeadlineExpired responses were rejected *before* dispatch
//     because the propagated deadline had passed: the handler did not
//     run, and a fresh attempt (with whatever budget the caller has
//     left) is safe;
//   - all other remote errors (application errors, protocol
//     violations, unknown service/operation) prove the request was
//     dispatched or deterministically rejected — retrying is unsafe or
//     pointless and callers must handle them;
//   - context.Canceled means the caller gave up — never retried.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		switch re.Status {
		case StatusBadRequest, StatusOverloaded, StatusDeadlineExpired:
			return true
		}
		return false
	}
	return !errors.Is(err, ErrRemote)
}
