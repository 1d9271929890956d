package obs

// Flight recorder, event half: a bounded in-memory timeline of the rare
// but load-bearing cluster events — elections (suspect, candidacy, vote
// grant/deny, promote, demote, rejoin), journal fail-stop latches,
// replication snapshot installs and fencing rejections, circuit-breaker
// transitions. Counters tell an operator *how many* failovers happened;
// the event log tells them *what happened, in what order* — and because
// every node keeps its own log, `cosmcli events` can merge the cluster's
// logs into one causal timeline after a chaotic failover. Nil-safe like
// the Registry and the SpanRecorder.

import (
	"sort"
	"time"
)

// Event is one timeline entry.
type Event struct {
	// Seq orders events recorded by one log within the same clock tick.
	Seq  uint64            `json:"seq"`
	Time time.Time         `json:"time"`
	Node string            `json:"node,omitempty"`
	Kind string            `json:"kind"`
	Attr map[string]string `json:"attr,omitempty"`
}

// EventLog is a bounded ring of cluster events. A nil *EventLog records
// nothing; all methods are safe for concurrent use.
type EventLog struct {
	node  string
	clock func() time.Time
	ring  ring[Event]
}

// NewEventLog returns a log retaining the last capacity events,
// attributed to node (may be empty; cosmcli tags merged events by the
// address it fetched them from). A capacity <= 0 returns nil.
func NewEventLog(node string, capacity int) *EventLog {
	if capacity <= 0 {
		return nil
	}
	return &EventLog{node: node, clock: time.Now, ring: ring[Event]{buf: make([]Event, capacity)}}
}

// Instrument reports the log's occupancy and its overwritten events
// into reg (cosm_obs_events_*). Call it before the first Record.
func (l *EventLog) Instrument(reg *Registry) {
	if l == nil {
		return
	}
	l.ring.occ = reg.Occupancy("cosm_obs_events", "overwritten", "Events", "cluster timeline")
}

// WithClock substitutes the time source (tests). Returns the log.
func (l *EventLog) WithClock(now func() time.Time) *EventLog {
	if l != nil {
		l.clock = now
	}
	return l
}

// Record appends one event; kv is alternating attribute keys and values
// (a trailing odd key takes an empty value).
func (l *EventLog) Record(kind string, kv ...string) {
	if l == nil {
		return
	}
	var attr map[string]string
	if len(kv) > 0 {
		attr = make(map[string]string, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			v := ""
			if i+1 < len(kv) {
				v = kv[i+1]
			}
			attr[kv[i]] = v
		}
	}
	l.ring.add(func(e *Event, seq uint64) {
		*e = Event{Seq: seq, Time: l.clock(), Node: l.node, Kind: kind, Attr: attr}
	})
}

// Events copies the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	return l.ring.snapshot()
}

// Len reports how many events are retained.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	return l.ring.len()
}

// MergeEvents folds several nodes' event slices into one timeline
// ordered by time (breaking ties by node then per-log sequence) — the
// cluster-wide post-mortem view assembled by `cosmcli events` and the
// trader's cell simulation when a seed fails.
func MergeEvents(logs ...[]Event) []Event {
	var out []Event
	for _, l := range logs {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
