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
	"cosm/internal/obs"
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

// Call carries one invocation through a handler. A handler binds its
// in/inout arguments with Args, and its result with Return or, as a
// dynamic value, Result (for non-void operations); it fills Out (one
// slot per out/inout parameter, pre-populated with zero values) with
// SetOut.
//
// A Call is the dispatcher's again once its handler returns, and goes
// back to a pool: a handler keeps neither the Call nor its Out slice.
// Session and every string Args decodes are windows of the one string
// the request was read into (see wire.Handler): a handler that keeps one
// past its return keeps a clone (strings.Clone), so that it does not
// keep the whole request alive.
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
	// Result receives the operation result as a dynamic value. Setting it
	// overrides an earlier Return.
	Result *xcode.Value
	// Out holds out/inout results, pre-populated with zero values.
	Out []*xcode.Value

	// args holds the in/inout argument chunks, which dispatch validated
	// against Op before the FSM stepped.
	args string
	// body is the buffer the reply is encoded in, borrowed from the
	// frame pool by the first Return or by dispatch; nil until then.
	body *[]byte
	// returned says *body holds the result chunk Return encoded.
	returned bool
}

// calls pools the Calls dispatch hands to handlers.
var calls = sync.Pool{New: func() any { return new(Call) }}

// free hands c back to calls, with the reply body no response took and
// the Out slots emptied.
func (c *Call) free() {
	c.release()
	clear(c.Out)
	*c = Call{Out: c.Out[:0]}
	calls.Put(c)
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
// dst pointers point to (see xcode.DecodeInto); a nil dst skips its
// argument.
func (c *Call) Args(dst ...any) error {
	if len(dst) != inCount(c.Op) {
		return c.badArgCount(len(dst))
	}
	rest, i := c.args, 0
	for _, p := range c.Op.Params {
		if p.Dir == sidl.Out {
			continue
		}
		chunk, r, _ := consumeChunk(rest) // framing checked at dispatch
		rest = r
		if err := xcode.DecodeInto(p.Type, chunk, dst[i]); err != nil {
			return c.badArg(i, err)
		}
		i++
	}
	return nil
}

// badArgCount and badArg are out of line, like the binder's errors, so
// their formatting does not enlarge Args's frame: Args runs on a
// handler goroutine, a reused worker's (see wire.Go), and a new worker,
// or one whose stack the GC shrank while it was parked, grows its stack
// by copying.

func (c *Call) badArgCount(got int) error {
	return fmt.Errorf("%w: op %s takes %d in-arguments, handler binds %d", ErrBadArgs, c.Op.Name, inCount(c.Op), got)
}

func (c *Call) badArg(i int, err error) error {
	return fmt.Errorf("%w: argument %d of op %s: %v", ErrBadArgs, i+1, c.Op.Name, err)
}

// Return encodes a Go value as the result type the operation's signature
// declares (see xcode.AppendEncode) straight into the reply body,
// replacing what an earlier Return encoded; a Return that fails undoes
// an earlier one.
func (c *Call) Return(src any) error {
	reply, err := appendEncoded(c.resetBody(), c.Op.Result, src)
	*c.body, c.returned = reply, err == nil
	if err != nil {
		return fmt.Errorf("%w: result of op %s: %v", ErrBadResult, c.Op.Name, err)
	}
	c.Result = nil
	return nil
}

// resetBody returns the reply body emptied, borrowing its buffer on
// first use.
func (c *Call) resetBody() []byte {
	if c.body == nil {
		c.body = wire.BorrowBuf()
	}
	return (*c.body)[:0]
}

// release hands back a reply body no response took: the handler failed
// or panicked after Return, or the result did not encode.
func (c *Call) release() {
	wire.ReleaseBuf(c.body)
	c.body = nil
}

// OpHandler implements one operation. It runs concurrently with other
// calls; shared state must be synchronized by the implementation. The
// call is the dispatcher's once the handler returns: the body Return
// encoded goes back to the frame pool after its write.
type OpHandler func(call *Call) error

// Service is a hosted COSM service: a SID plus an implementation of its
// operations. Create one with NewService, attach handlers with Handle,
// then host it on a Node.
type Service struct {
	sid      *sidl.SID
	enforce  bool
	handlers map[string]OpHandler
	sessions *obs.LRU[*fsm.Session] // by remote and session; nil if the FSM is unrestricted
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
	s := &Service{sid: sid, enforce: true, handlers: map[string]OpHandler{}}
	if sid.FSM.Restricted() {
		// The LRU sizes its index for the bound up front (≈218 KB on
		// amd64), so only a service with a protocol to enforce keeps one.
		s.sessions = obs.NewLRU[*fsm.Session](maxSessions, obs.Occupancy{})
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

// ServeCOSM dispatches one wire request: Service is the wire.Handler a
// Node hosts. ctx carries the caller's propagated deadline and is handed
// to the operation handler via Call.Ctx. The response is the one
// req.Reply lends, and the Call the handler ran on goes back to its pool
// once the handler returns.
func (s *Service) ServeCOSM(ctx context.Context, remote string, req *wire.Request) *wire.Response {
	switch req.Op {
	case OpDescribe:
		body := wire.BorrowBuf()
		*body = append(*body, s.sid.IDL()...)
		resp := req.Reply(wire.StatusOK, "")
		resp.Body, resp.Buf = *body, body
		return resp
	case OpPing:
		return req.Reply(wire.StatusOK, "")
	}

	op, ok := s.sid.Op(req.Op)
	if !ok {
		return req.Reply(wire.StatusNoOp, req.Op)
	}
	h, ok := s.handlers[req.Op]
	if !ok {
		return req.Reply(wire.StatusAppError, "operation not implemented: "+req.Op)
	}

	session, args, err := decodeCallBody(op, req.Received)
	if err != nil {
		return req.Reply(wire.StatusBadRequest, err.Error())
	}

	// Server-side FSM enforcement: the authoritative protocol check of
	// section 4.2 (the generic client performs the same check locally to
	// reject violations before any network traffic).
	if s.enforce && s.sid.FSM.Restricted() {
		if err := s.step(remote, session, req.Op); err != nil {
			return req.Reply(wire.StatusProtocol, err.Error())
		}
	}

	call := calls.Get().(*Call)
	defer call.free()
	call.Ctx, call.Remote, call.Session, call.Op, call.args = ctx, remote, session, op, args
	for _, p := range op.Params {
		if p.Dir != sidl.In {
			call.Out = append(call.Out, xcode.Zero(p.Type))
		}
	}
	if err := h(call); err != nil {
		return req.Reply(wire.StatusAppError, err.Error())
	}

	body, err := encodeCallResult(op, call)
	if err != nil {
		return req.Reply(wire.StatusAppError, err.Error())
	}
	resp := req.Reply(wire.StatusOK, "")
	resp.Body, resp.Buf = body, call.body
	call.body = nil // the server hands it back after the write
	return resp
}

// Call body layout (request): session string, then each in/inout
// argument in parameter order, each length-prefixed so arguments can be
// decoded independently of struct layout drift.
//
// Result layout (response): result value (absent for void), then each
// out/inout value in parameter order, all length-prefixed.
//
// Both bodies are encoded into a buffer borrowed from the wire layer's
// frame pool (wire.BorrowBuf), one chunk after the other, each value in
// place: its longest length prefix is reserved, the value encoded after
// it and the gap closed. A reply's buffer travels in its wire.Response and the
// server hands it back after the write; a request's goes back once the
// call is written (send, in conn.go).

func appendChunk(dst []byte, chunk []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(chunk)))
	return append(dst, chunk...)
}

// openChunk reserves the longest length prefix of a chunk encoded in
// place; closeChunk fills it in for the chunk that starts at start, and
// closes the gap.
func openChunk(dst []byte) []byte {
	return append(dst, make([]byte, binary.MaxVarintLen64)...)
}

func closeChunk(dst []byte, start int) []byte {
	body := start + binary.MaxVarintLen64
	n := binary.PutUvarint(dst[start:], uint64(len(dst)-body))
	return append(dst[:start+n], dst[body:]...)
}

// appendEncoded appends src, encoded as t, as one chunk. On an error dst
// is returned as it came.
func appendEncoded(dst []byte, t *sidl.Type, src any) ([]byte, error) {
	out, err := xcode.AppendEncode(openChunk(dst), t, src)
	if err != nil {
		return dst, err
	}
	return closeChunk(out, len(dst)), nil
}

// appendValue appends the dynamic value v, projected to t, as one chunk.
func appendValue(dst []byte, t *sidl.Type, v *xcode.Value) ([]byte, error) {
	projected, err := v.Project(t)
	if err != nil {
		return dst, err
	}
	return closeChunk(xcode.AppendMarshal(openChunk(dst), projected), len(dst)), nil
}

// consumeChunk splits a length-prefixed chunk, a window of data, off a
// request body or a reply. Its length is read with binary.Uvarint, and
// converting a string for that allocates nothing: the bytes do not
// escape, and they are at most binary.MaxVarintLen64+1, one past the
// longest uvarint so that an overlong one still reads as overlong. A
// length is written in its shortest form (appendChunk, closeChunk), so a
// longer one is refused: a body has one encoding.
func consumeChunk(data string) (chunk, rest string, err error) {
	n, size := binary.Uvarint([]byte(data[:min(len(data), binary.MaxVarintLen64+1)]))
	if size <= 0 {
		return "", "", fmt.Errorf("%w: truncated or overlong chunk length", ErrBadArgs)
	}
	if size > 1 && data[size-1] == 0 {
		return "", "", fmt.Errorf("%w: chunk length not in its shortest form", ErrBadArgs)
	}
	tail := data[size:]
	if uint64(len(tail)) < n {
		return "", "", fmt.Errorf("%w: truncated chunk", ErrBadArgs)
	}
	return tail[:n], tail[n:], nil
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

// appendCallArgs appends the in/inout arguments to a request body: a
// typed caller's Go values (encode is xcode.AppendEncode's binding) or a
// dynamic caller's values, one chunk each.
func appendCallArgs[A any](dst []byte, op sidl.Op, args []A, encode func(dst []byte, t *sidl.Type, arg A) ([]byte, error)) ([]byte, error) {
	if want := inCount(op); len(args) != want {
		return dst, fmt.Errorf("%w: op %s takes %d in-arguments, got %d", ErrBadArgs, op.Name, want, len(args))
	}
	i := 0
	for _, p := range op.Params {
		if p.Dir == sidl.Out {
			continue
		}
		var err error
		if dst, err = encode(dst, p.Type, args[i]); err != nil {
			return dst, fmt.Errorf("%w: argument %q of op %s: %v", ErrBadArgs, p.Name, op.Name, err)
		}
		i++
	}
	return dst, nil
}

// decodeCallBody splits a request body into the session and the
// argument chunks, both windows of body, and validates every argument
// against its parameter type without building anything: a malformed body
// is refused here, before the FSM steps or a handler runs.
func decodeCallBody(op sidl.Op, body string) (session, args string, err error) {
	session, args, err = consumeChunk(body)
	if err != nil {
		return "", "", err
	}
	rest := args
	for _, p := range op.Params {
		if p.Dir == sidl.Out {
			continue
		}
		var arg string
		if arg, rest, err = consumeChunk(rest); err != nil {
			return "", "", fmt.Errorf("%w: argument %q: %v", ErrBadArgs, p.Name, err)
		}
		if err := xcode.DecodeInto(p.Type, arg, nil); err != nil {
			return "", "", fmt.Errorf("%w: argument %q: %v", ErrBadArgs, p.Name, err)
		}
	}
	if len(rest) != 0 {
		return "", "", fmt.Errorf("%w: %d trailing bytes", ErrBadArgs, len(rest))
	}
	return session, args, nil
}

// encodeCallResult encodes the reply body into call's borrowed buffer:
// the result (Result if set, else the chunk Return encoded), then the
// out/inout values.
func encodeCallResult(op sidl.Op, call *Call) ([]byte, error) {
	var body []byte
	var err error
	switch {
	case op.Result.Kind == sidl.Void:
		body = call.resetBody()
	case call.Result != nil:
		if body, err = appendValue(call.resetBody(), op.Result, call.Result); err != nil {
			return nil, fmt.Errorf("%w: result: %v", ErrBadResult, err)
		}
	case call.returned:
		body = *call.body
	default:
		return nil, fmt.Errorf("%w: op %s returned no result", ErrBadResult, op.Name)
	}
	i := 0
	for _, p := range op.Params {
		if p.Dir == sidl.In {
			continue
		}
		out := call.Out[i]
		i++
		if body, err = appendValue(body, p.Type, out); err != nil {
			return nil, fmt.Errorf("%w: out %q: %v", ErrBadResult, p.Name, err)
		}
	}
	*call.body = body
	return body, nil
}

// decodeCallResult walks a reply body: decode gets the result chunk (of
// a non-void operation; out is -1) and then each out/inout chunk (out
// counts them), each with the type the signature declares. The chunks
// are windows of body, which decode reads in place.
func decodeCallResult(op sidl.Op, body string, decode func(t *sidl.Type, chunk string, out int) error) error {
	rest := body
	if op.Result.Kind != sidl.Void {
		chunk, r, err := consumeChunk(rest)
		if err != nil {
			return err
		}
		if err := decode(op.Result, chunk, -1); err != nil {
			return fmt.Errorf("result: %w", err)
		}
		rest = r
	}
	out := 0
	for _, p := range op.Params {
		if p.Dir == sidl.In {
			continue
		}
		chunk, r, err := consumeChunk(rest)
		if err != nil {
			return fmt.Errorf("out %q: %w", p.Name, err)
		}
		if err := decode(p.Type, chunk, out); err != nil {
			return fmt.Errorf("out %q: %w", p.Name, err)
		}
		rest = r
		out++
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in result", ErrBadResult, len(rest))
	}
	return nil
}

// maxSessions bounds a service's FSM sessions, kept per (remote,
// session) pair: the least recently used is evicted when the table is
// full, so a misbehaving client cannot exhaust server memory.
const maxSessions = 4096

// step takes op's transition in the session of (remote, session),
// starting that session at the initial state on its first call.
// Concurrent first calls share one session.
func (s *Service) step(remote, session, op string) error {
	fs := s.sessions.GetOrAdd(remote+"\x00"+session, func() *fsm.Session { return fsm.NewSession(s.sid.FSM) })
	// Step outside the table lock: the session has its own mutex.
	return fs.Step(op)
}
