// Package activity implements the "Activity Management" / "TP-Monitor"
// function of the COSM controlling level and the "Transactional RPC"
// function of the communication level (Fig. 6).
//
// The paper lists both as part of the architecture but "currently
// outside the scope of the ongoing prototype implementation"; this
// package supplies them in the same style as the rest of the
// infrastructure: the Activity Manager is itself a COSM service with a
// SID, participants are COSM services implementing a small transactional
// interface, and coordination is classic presumed-abort two-phase
// commit.
//
// An activity groups invocations at several services into one atomic
// unit of work: a client Begins an activity, enlists each participant
// (Join), performs ordinary invocations that the participants key by
// activity identifier, and finally Commits — the manager drives
// prepare/commit (or abort) at every participant.
package activity

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/wire"
)

// Errors reported by the activity manager.
var (
	ErrUnknownActivity = errors.New("activity: unknown activity")
	ErrNotActive       = errors.New("activity: activity is not active")
)

// State is the lifecycle state of an activity.
type State uint8

// Activity states (presumed-abort 2PC).
const (
	Active State = iota + 1
	Preparing
	Committed
	Aborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Preparing:
		return "preparing"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Participant operation names; every transactional service implements
// these three operations (the CosmParticipant interface).
const (
	OpPrepare = "TxPrepare"
	OpCommit  = "TxCommit"
	OpAbort   = "TxAbort"
)

// Manager is the activity coordinator. It drives two-phase commit over
// participants addressed by service reference, binding through a shared
// pool. Safe for concurrent use.
type Manager struct {
	pool *wire.Pool

	mu         sync.Mutex
	activities map[string]*activity
}

type activity struct {
	state        State
	participants []ref.ServiceRef
}

// NewManager returns an empty coordinator.
func NewManager(pool *wire.Pool) *Manager {
	return &Manager{pool: pool, activities: map[string]*activity{}}
}

// Begin starts a new activity and returns its identifier.
func (m *Manager) Begin() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("activity: crypto/rand unavailable: " + err.Error())
	}
	id := "act-" + hex.EncodeToString(b[:])
	m.mu.Lock()
	m.activities[id] = &activity{state: Active}
	m.mu.Unlock()
	return id
}

// Join enlists a participant service in an active activity. Enlisting
// the same participant twice is a no-op.
func (m *Manager) Join(id string, participant ref.ServiceRef) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	act, ok := m.activities[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownActivity, id)
	}
	if act.state != Active {
		return fmt.Errorf("%w: %q is %s", ErrNotActive, id, act.state)
	}
	for _, p := range act.participants {
		if p == participant {
			return nil
		}
	}
	act.participants = append(act.participants, participant)
	return nil
}

// Participants returns the enlisted participants, sorted by reference.
func (m *Manager) Participants(id string) ([]ref.ServiceRef, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	act, ok := m.activities[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownActivity, id)
	}
	out := append([]ref.ServiceRef(nil), act.participants...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// Status returns the activity's state.
func (m *Manager) Status(id string) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	act, ok := m.activities[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownActivity, id)
	}
	return act.state, nil
}

// Commit runs two-phase commit. It returns (true, nil) when all
// participants voted yes and were committed, and (false, nil) when the
// activity was aborted because some participant voted no or failed
// during prepare. Calling Commit on a finished activity returns its
// outcome idempotently.
func (m *Manager) Commit(ctx context.Context, id string) (bool, error) {
	m.mu.Lock()
	act, ok := m.activities[id]
	if !ok {
		m.mu.Unlock()
		return false, fmt.Errorf("%w: %q", ErrUnknownActivity, id)
	}
	switch act.state {
	case Committed:
		m.mu.Unlock()
		return true, nil
	case Aborted:
		m.mu.Unlock()
		return false, nil
	case Preparing:
		m.mu.Unlock()
		return false, fmt.Errorf("%w: %q is already preparing", ErrNotActive, id)
	}
	act.state = Preparing
	participants := append([]ref.ServiceRef(nil), act.participants...)
	m.mu.Unlock()

	// Phase 1: prepare.
	prepared := make([]ref.ServiceRef, 0, len(participants))
	vote := true
	for _, p := range participants {
		var ok bool
		if err := m.call(ctx, p, OpPrepare, &ok, id); err != nil || !ok {
			vote = false
			break
		}
		prepared = append(prepared, p)
	}

	if !vote {
		// Abort at every participant, not only the prepared ones: a
		// participant that voted no may still hold pending state for
		// the activity and must discard it.
		m.finish(ctx, id, participants, OpAbort)
		m.setState(id, Aborted)
		return false, nil
	}

	// Phase 2: commit everywhere. Participant failures here are logged
	// into the error best-effort; the decision is already durable in the
	// coordinator (in-memory durability — the 1994 prototype level).
	m.finish(ctx, id, prepared, OpCommit)
	m.setState(id, Committed)
	return true, nil
}

// Abort rolls back an active activity at every participant.
func (m *Manager) Abort(ctx context.Context, id string) error {
	m.mu.Lock()
	act, ok := m.activities[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownActivity, id)
	}
	if act.state == Aborted {
		m.mu.Unlock()
		return nil
	}
	if act.state == Committed {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q already committed", ErrNotActive, id)
	}
	participants := append([]ref.ServiceRef(nil), act.participants...)
	act.state = Preparing
	m.mu.Unlock()

	m.finish(ctx, id, participants, OpAbort)
	m.setState(id, Aborted)
	return nil
}

func (m *Manager) setState(id string, s State) {
	m.mu.Lock()
	if act, ok := m.activities[id]; ok {
		act.state = s
	}
	m.mu.Unlock()
}

// finish drives commit or abort at each participant, tolerating
// individual failures.
func (m *Manager) finish(ctx context.Context, id string, participants []ref.ServiceRef, op string) {
	for _, p := range participants {
		_ = m.call(ctx, p, op, nil, id) // best effort: the decision is taken
	}
}

// call invokes one participant operation for the activity; result
// receives the operation's result (nil discards it).
func (m *Manager) call(ctx context.Context, p ref.ServiceRef, op string, result any, id string) error {
	conn, err := cosm.Bind(ctx, m.pool, p)
	if err != nil {
		return err
	}
	return conn.Call(ctx, op, result, id)
}
