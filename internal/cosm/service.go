// Package cosm is the core library of the COSM (Common Open Service
// Market) reproduction: the runtime that lets a node host services
// described by SIDs and lets clients bind to and dynamically invoke such
// services with no compiled stubs.
//
// The paper's central design decision (section 3.1) is that the Service
// Interface Description is a communicable first-class object. This
// package realises that: every hosted service answers the reserved
// "_cosm.describe" meta-operation with its own SID text, so any client —
// in particular the generic client of package genclient — can obtain the
// full description at bind time and marshal parameters dynamically.
// Operation invocations are encoded by package xcode, driven by the
// types in the SID; FSM protocol restrictions are enforced server-side
// per session (the client additionally intercepts violations locally).
package cosm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"cosm/internal/fsm"
	"cosm/internal/sidl"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

// Reserved meta-operation names. Operation names starting with
// "_cosm." never clash with SIDL identifiers (IDL identifiers cannot
// contain '.').
const (
	// OpDescribe returns the service's SID as SIDL text.
	OpDescribe = "_cosm.describe"
	// OpPing returns an empty body; used for liveness probes.
	OpPing = "_cosm.ping"
)

// Errors reported by service construction and dispatch.
var (
	ErrUnknownOp  = errors.New("cosm: unknown operation")
	ErrBadArgs    = errors.New("cosm: bad arguments")
	ErrBadResult  = errors.New("cosm: handler produced bad result")
	ErrNilService = errors.New("cosm: nil service")
)

// Call carries one invocation through a handler. In holds one value per
// in/inout parameter, positionally. The handler sets Result (for
// non-void operations) and fills Out (one slot per out/inout parameter,
// pre-populated with zero values).
type Call struct {
	// Ctx carries the caller's propagated deadline and cancellation (see
	// wire.Handler); long-running handlers should honour it.
	Ctx context.Context
	// Remote is the transport address of the calling node.
	Remote string
	// Session identifies the client binding for FSM tracking.
	Session string
	// Op is the operation signature being invoked.
	Op sidl.Op
	// In holds the decoded in/inout arguments.
	In []*xcode.Value
	// Result receives the operation result.
	Result *xcode.Value
	// Out holds out/inout results, pre-populated with zero values.
	Out []*xcode.Value

	// returned is what Return encoded: a value of exactly the declared
	// result type, which needs no projection on the way out.
	returned *xcode.Value
}

// Arg returns the in/inout argument by parameter name.
func (c *Call) Arg(name string) (*xcode.Value, error) {
	i := 0
	for _, p := range c.Op.Params {
		if p.Dir == sidl.Out {
			continue
		}
		if p.Name == name {
			return c.In[i], nil
		}
		i++
	}
	return nil, fmt.Errorf("%w: no in-parameter %q in op %s", ErrBadArgs, name, c.Op.Name)
}

// SetOut sets the out/inout result by parameter name.
func (c *Call) SetOut(name string, v *xcode.Value) error {
	i := 0
	for _, p := range c.Op.Params {
		if p.Dir == sidl.In {
			continue
		}
		if p.Name == name {
			if !v.Type.ConformsTo(p.Type) {
				return fmt.Errorf("%w: out %q has type %s, want %s", ErrBadResult, name, v.Type, p.Type)
			}
			c.Out[i] = v
			return nil
		}
		i++
	}
	return fmt.Errorf("%w: no out-parameter %q in op %s", ErrBadResult, name, c.Op.Name)
}

// Args decodes the in/inout arguments, in parameter order, into what the
// dst pointers point to (see xcode.Decode) — the typed counterpart of
// Arg for a handler that has Go types for its parameters.
func (c *Call) Args(dst ...any) error {
	if len(dst) != len(c.In) {
		return fmt.Errorf("%w: op %s takes %d in-arguments, handler binds %d", ErrBadArgs, c.Op.Name, len(c.In), len(dst))
	}
	for i, d := range dst {
		if err := xcode.Decode(c.In[i], d); err != nil {
			return fmt.Errorf("%w: argument %d of op %s: %v", ErrBadArgs, i+1, c.Op.Name, err)
		}
	}
	return nil
}

// Return sets Result from a Go value, encoded as the result type the
// operation's signature declares (see xcode.Encode).
func (c *Call) Return(src any) error {
	v, err := xcode.Encode(c.Op.Result, src)
	if err != nil {
		return fmt.Errorf("%w: result of op %s: %v", ErrBadResult, c.Op.Name, err)
	}
	c.Result, c.returned = v, v
	return nil
}

// OpHandler implements one operation. It runs concurrently with other
// calls; shared state must be synchronized by the implementation.
type OpHandler func(call *Call) error

// Service is a hosted COSM service: a SID plus an implementation of its
// operations. Create one with NewService, attach handlers with Handle,
// then host it on a Node.
type Service struct {
	sid      *sidl.SID
	enforce  bool
	handlers map[string]OpHandler
	sessions *sessionTable
}

// ServiceOption configures a Service.
type ServiceOption func(*Service)

// WithoutFSMEnforcement disables server-side FSM protocol enforcement.
// The generic client still intercepts violations locally; disabling the
// server-side check reproduces a trusting 1994-style server and is used
// by the ablation benchmarks.
func WithoutFSMEnforcement() ServiceOption {
	return func(s *Service) { s.enforce = false }
}

// NewService creates a service for a validated SID.
func NewService(sid *sidl.SID, opts ...ServiceOption) (*Service, error) {
	if sid == nil {
		return nil, ErrNilService
	}
	if err := sid.Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		sid:      sid,
		enforce:  true,
		handlers: map[string]OpHandler{},
		sessions: newSessionTable(sid.FSM, defaultMaxSessions),
	}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// SID returns the service's description.
func (s *Service) SID() *sidl.SID { return s.sid }

// Handle attaches the handler for an operation declared in the SID.
func (s *Service) Handle(opName string, h OpHandler) error {
	if _, ok := s.sid.Op(opName); !ok {
		return fmt.Errorf("%w: %q not in SID %s", ErrUnknownOp, opName, s.sid.ServiceName)
	}
	if h == nil {
		return fmt.Errorf("cosm: nil handler for %q", opName)
	}
	s.handlers[opName] = h
	return nil
}

// MustHandle is Handle for static wiring; it panics on error.
func (s *Service) MustHandle(opName string, h OpHandler) {
	if err := s.Handle(opName, h); err != nil {
		panic(err)
	}
}

// serveCOSM dispatches one wire request. It implements wire.Handler via
// the adapter in node.go. ctx carries the caller's propagated deadline
// and is handed to the operation handler via Call.Ctx.
func (s *Service) serveCOSM(ctx context.Context, remote string, req *wire.Request) *wire.Response {
	switch req.Op {
	case OpDescribe:
		text, err := s.sid.MarshalText()
		if err != nil {
			return &wire.Response{Status: wire.StatusAppError, ErrMsg: err.Error()}
		}
		return &wire.Response{Status: wire.StatusOK, Body: text}
	case OpPing:
		return &wire.Response{Status: wire.StatusOK}
	}

	op, ok := s.sid.Op(req.Op)
	if !ok {
		return &wire.Response{Status: wire.StatusNoOp, ErrMsg: req.Op}
	}
	h, ok := s.handlers[req.Op]
	if !ok {
		return &wire.Response{Status: wire.StatusAppError, ErrMsg: "operation not implemented: " + req.Op}
	}

	session, in, err := decodeCallBody(op, req.Body)
	if err != nil {
		return &wire.Response{Status: wire.StatusBadRequest, ErrMsg: err.Error()}
	}

	// Server-side FSM enforcement: the authoritative protocol check of
	// section 4.2 (the generic client performs the same check locally to
	// reject violations before any network traffic).
	if s.enforce && s.sid.FSM.Restricted() {
		if err := s.sessions.step(remote, session, req.Op); err != nil {
			return &wire.Response{Status: wire.StatusProtocol, ErrMsg: err.Error()}
		}
	}

	call := &Call{Ctx: ctx, Remote: remote, Session: session, Op: op, In: in}
	for _, p := range op.Params {
		if p.Dir != sidl.In {
			call.Out = append(call.Out, xcode.Zero(p.Type))
		}
	}
	if err := h(call); err != nil {
		return &wire.Response{Status: wire.StatusAppError, ErrMsg: err.Error()}
	}

	body, err := encodeCallResult(op, call)
	if err != nil {
		return &wire.Response{Status: wire.StatusAppError, ErrMsg: err.Error()}
	}
	return &wire.Response{Status: wire.StatusOK, Body: body}
}

// Call body layout (request): session string, then each in/inout
// argument in parameter order, each length-prefixed so arguments can be
// decoded independently of struct layout drift.
//
// Result layout (response): result value (absent for void), then each
// out/inout value in parameter order, all length-prefixed.

func appendChunk(dst []byte, chunk []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(chunk)))
	return append(dst, chunk...)
}

func consumeChunk(data []byte) ([]byte, []byte, error) {
	n, size := binary.Uvarint(data)
	if size <= 0 {
		return nil, nil, fmt.Errorf("%w: truncated or overlong chunk length", ErrBadArgs)
	}
	rest := data[size:]
	if uint64(len(rest)) < n {
		return nil, nil, fmt.Errorf("%w: truncated chunk", ErrBadArgs)
	}
	return rest[:n], rest[n:], nil
}

// inCount returns how many arguments an invocation of op carries.
func inCount(op sidl.Op) int {
	n := 0
	for _, p := range op.Params {
		if p.Dir != sidl.Out {
			n++
		}
	}
	return n
}

func encodeCallBody(op sidl.Op, session string, args []*xcode.Value) ([]byte, error) {
	if want := inCount(op); len(args) != want {
		return nil, fmt.Errorf("%w: op %s takes %d in-arguments, got %d", ErrBadArgs, op.Name, want, len(args))
	}
	body := appendChunk(nil, []byte(session))
	i := 0
	for _, p := range op.Params {
		if p.Dir == sidl.Out {
			continue
		}
		projected, err := args[i].Project(p.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: argument %q: %v", ErrBadArgs, p.Name, err)
		}
		body = appendChunk(body, xcode.Marshal(projected))
		i++
	}
	return body, nil
}

func decodeCallBody(op sidl.Op, body []byte) (session string, in []*xcode.Value, err error) {
	chunk, rest, err := consumeChunk(body)
	if err != nil {
		return "", nil, err
	}
	session = string(chunk)
	for _, p := range op.Params {
		if p.Dir == sidl.Out {
			continue
		}
		chunk, rest, err = consumeChunk(rest)
		if err != nil {
			return "", nil, fmt.Errorf("%w: argument %q: %v", ErrBadArgs, p.Name, err)
		}
		v, err := xcode.Unmarshal(p.Type, chunk)
		if err != nil {
			return "", nil, fmt.Errorf("%w: argument %q: %v", ErrBadArgs, p.Name, err)
		}
		in = append(in, v)
	}
	if len(rest) != 0 {
		return "", nil, fmt.Errorf("%w: %d trailing bytes", ErrBadArgs, len(rest))
	}
	return session, in, nil
}

func encodeCallResult(op sidl.Op, call *Call) ([]byte, error) {
	var body []byte
	if op.Result.Kind != sidl.Void {
		if call.Result == nil {
			return nil, fmt.Errorf("%w: op %s returned no result", ErrBadResult, op.Name)
		}
		projected := call.Result
		if projected != call.returned {
			var err error
			if projected, err = call.Result.Project(op.Result); err != nil {
				return nil, fmt.Errorf("%w: result: %v", ErrBadResult, err)
			}
		}
		body = appendChunk(body, xcode.Marshal(projected))
	}
	i := 0
	for _, p := range op.Params {
		if p.Dir == sidl.In {
			continue
		}
		out := call.Out[i]
		i++
		projected, err := out.Project(p.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: out %q: %v", ErrBadResult, p.Name, err)
		}
		body = appendChunk(body, xcode.Marshal(projected))
	}
	return body, nil
}

func decodeCallResult(op sidl.Op, body []byte) (result *xcode.Value, outs []*xcode.Value, err error) {
	rest := body
	if op.Result.Kind != sidl.Void {
		var chunk []byte
		chunk, rest, err = consumeChunk(rest)
		if err != nil {
			return nil, nil, err
		}
		result, err = xcode.Unmarshal(op.Result, chunk)
		if err != nil {
			return nil, nil, fmt.Errorf("result: %w", err)
		}
	}
	for _, p := range op.Params {
		if p.Dir == sidl.In {
			continue
		}
		var chunk []byte
		chunk, rest, err = consumeChunk(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("out %q: %w", p.Name, err)
		}
		v, err := xcode.Unmarshal(p.Type, chunk)
		if err != nil {
			return nil, nil, fmt.Errorf("out %q: %w", p.Name, err)
		}
		outs = append(outs, v)
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes in result", ErrBadResult, len(rest))
	}
	return result, outs, nil
}

// sessionTable tracks FSM sessions per (remote, session) pair with a
// bounded size: the least recently used session is evicted when the
// table is full, so a misbehaving client cannot exhaust server memory.
type sessionTable struct {
	spec *fsm.Spec
	max  int

	mu    sync.Mutex
	table map[string]*sessionEntry
	// ring is a doubly linked LRU list; head.next is most recent.
	head sessionEntry
}

type sessionEntry struct {
	key        string
	session    *fsm.Session
	prev, next *sessionEntry
}

const defaultMaxSessions = 4096

func newSessionTable(spec *fsm.Spec, max int) *sessionTable {
	t := &sessionTable{spec: spec, max: max, table: map[string]*sessionEntry{}}
	t.head.prev = &t.head
	t.head.next = &t.head
	return t
}

func (t *sessionTable) step(remote, session, op string) error {
	key := remote + "\x00" + session
	t.mu.Lock()
	e, ok := t.table[key]
	if !ok {
		e = &sessionEntry{key: key, session: fsm.NewSession(t.spec)}
		t.table[key] = e
		t.insertFront(e)
		if len(t.table) > t.max {
			oldest := t.head.prev
			t.unlink(oldest)
			delete(t.table, oldest.key)
		}
	} else {
		t.unlink(e)
		t.insertFront(e)
	}
	t.mu.Unlock()
	// Step outside the table lock: the session has its own mutex.
	return e.session.Step(op)
}

func (t *sessionTable) insertFront(e *sessionEntry) {
	e.prev = &t.head
	e.next = t.head.next
	t.head.next.prev = e
	t.head.next = e
}

func (t *sessionTable) unlink(e *sessionEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}
