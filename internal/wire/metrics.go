package wire

import (
	"context"
	"errors"
	"strings"
	"time"

	"cosm/internal/obs"
)

// Metric naming scheme (see DESIGN.md "Observability"):
//
//	cosm_<component>_<what>_<unit>
//
// The wire layer owns the cosm_client_* (Pool) and cosm_server_*
// (Server) families. Label cardinality is bounded by obs (64 values per
// vec, overflow collapsing into "_other"), so endpoint- and op-labelled
// families cannot grow without bound.
//
// Pool and Server hold their instruments by value and call them
// directly: obs instruments are nil-safe, and a nil registry binds
// nil instruments, so the zero poolMetrics/serverMetrics records
// nothing. Only a label computation that allocates sits behind a nil
// check of the vec it feeds.

// poolMetrics are the cosm_client_* instruments of one Pool.
type poolMetrics struct {
	latency      *obs.HistogramVec // cosm_client_call_seconds{endpoint}
	status       *obs.CounterVec   // cosm_client_calls_total{status}
	dials        *obs.Counter
	dialFailures *obs.Counter
	reuses       *obs.Counter
	retries      *obs.Counter
	failFast     *obs.Counter
	sheds        *obs.Counter
	breaker      *obs.CounterVec // cosm_client_breaker_transitions_total{to}
}

func bindPoolMetrics(reg *obs.Registry) poolMetrics {
	return poolMetrics{
		latency:      reg.HistogramVec("cosm_client_call_seconds", "Per-attempt RPC latency by endpoint (dial included).", "endpoint", nil),
		status:       reg.CounterVec("cosm_client_calls_total", "RPC attempts by outcome status.", "status"),
		dials:        reg.Counter("cosm_client_dials_total", "Pool dial attempts."),
		dialFailures: reg.Counter("cosm_client_dial_failures_total", "Pool dial failures."),
		reuses:       reg.Counter("cosm_client_conn_reuse_total", "Gets served by an already-pooled connection."),
		retries:      reg.Counter("cosm_client_retries_total", "Extra call attempts beyond the first."),
		failFast:     reg.Counter("cosm_client_failfast_total", "Requests rejected immediately by an open circuit breaker."),
		sheds:        reg.Counter("cosm_client_sheds_total", "StatusOverloaded responses received."),
		breaker:      reg.CounterVec("cosm_client_breaker_transitions_total", "Circuit breaker state transitions by new state.", "to"),
	}
}

// observeAttempt records one call attempt's latency and outcome.
func (m *poolMetrics) observeAttempt(endpoint string, start time.Time, err error) {
	if m.status == nil {
		return
	}
	m.latency.With(endpoint).Observe(time.Since(start).Seconds())
	m.status.With(attemptStatusLabel(err)).Inc()
}

// attemptStatusLabel classifies one attempt's outcome into a bounded
// label set: "ok", the remote status slug, or a local error class.
func attemptStatusLabel(err error) string {
	if err == nil {
		return "ok"
	}
	var remote *RemoteError
	switch {
	case errors.As(err, &remote):
		return statusSlug(remote.Status)
	case errors.Is(err, ErrCircuitOpen):
		return "circuit_open"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	default:
		return "conn_error"
	}
}

// statusSlug renders a Status as a metric label ("application error" ->
// "application_error").
func statusSlug(s Status) string {
	return strings.ReplaceAll(s.String(), " ", "_")
}

// serverMetrics are the cosm_server_* instruments of one Server.
type serverMetrics struct {
	latency   *obs.HistogramVec // cosm_server_request_seconds{op}
	status    *obs.CounterVec   // cosm_server_responses_total{status}
	queueWait *obs.Histogram
	sheds     *obs.Counter
	expired   *obs.Counter
	panics    *obs.Counter
	slow      *obs.Counter
	inflight  *obs.Gauge
}

func bindServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		latency:   reg.HistogramVec("cosm_server_request_seconds", "Handler latency by service/op.", "op", nil),
		status:    reg.CounterVec("cosm_server_responses_total", "Responses sent by status.", "status"),
		queueWait: reg.Histogram("cosm_server_queue_wait_seconds", "Admission queue wait before a handler slot freed.", nil),
		sheds:     reg.Counter("cosm_server_sheds_total", "Requests shed with StatusOverloaded."),
		expired:   reg.Counter("cosm_server_deadline_expired_total", "Requests rejected with an already-expired deadline."),
		panics:    reg.Counter("cosm_server_panics_total", "Handler panics converted into StatusAppError."),
		slow:      reg.Counter("cosm_server_slow_requests_total", "Requests exceeding the slow-request watchdog threshold."),
		inflight:  reg.Gauge("cosm_server_inflight_requests", "Requests dispatched and not yet responded to."),
	}
}
