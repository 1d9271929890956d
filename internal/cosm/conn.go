package cosm

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

// Describe fetches the SID of the service behind r using the reserved
// "_cosm.describe" meta-operation — the "SID transfer" arrow of Fig. 3.
// Connections are drawn from pool, under the pool's retry/breaker
// policy: describing is read-only and idempotent, so connection-class
// failures are retried transparently.
func Describe(ctx context.Context, pool *wire.Pool, r ref.ServiceRef) (*sidl.SID, error) {
	body, err := pool.Call(ctx, r.Endpoint, &wire.Request{Service: r.Service, Op: OpDescribe})
	if err != nil {
		return nil, fmt.Errorf("cosm: describe %s: %w", r, err)
	}
	var sid sidl.SID
	if err := sid.UnmarshalText(body); err != nil {
		return nil, fmt.Errorf("cosm: describe %s: %w", r, err)
	}
	return &sid, nil
}

// Ping probes liveness of the service behind r. Like Describe it is
// idempotent and runs under the pool's retry/breaker policy, so a
// returned error means the service stayed unreachable across the
// policy's attempts — not one unlucky packet.
func Ping(ctx context.Context, pool *wire.Pool, r ref.ServiceRef) error {
	_, err := pool.Call(ctx, r.Endpoint, &wire.Request{Service: r.Service, Op: OpPing})
	return err
}

// Result is the outcome of one dynamic invocation.
type Result struct {
	// Value is the operation result (nil for void operations).
	Value *xcode.Value
	// Outs holds out/inout values in parameter order.
	Outs []*xcode.Value
}

// Out returns the out/inout value by parameter name.
func (r *Result) Out(op sidl.Op, name string) (*xcode.Value, error) {
	i := 0
	for _, p := range op.Params {
		if p.Dir == sidl.In {
			continue
		}
		if p.Name == name {
			return r.Outs[i], nil
		}
		i++
	}
	return nil, fmt.Errorf("%w: no out-parameter %q in op %s", ErrBadResult, name, op.Name)
}

// Conn is a client-side binding to one remote service: the reference,
// its SID, a session identity for FSM tracking, and the pool the
// transport client is drawn from. Conn performs dynamic marshalling
// only; protocol interception and UI generation live in the generic
// client built on top of it.
//
// Each invocation fetches the endpoint's client from the pool, so a
// binding survives a broken connection: the next Invoke dials fresh
// instead of failing forever on the poisoned client. For stateless
// services that is fully transparent. For FSM-guarded services the
// server keys protocol state by (remote, session); a redial changes
// the remote, so the server sees a fresh session in its initial state
// and rejects out-of-order operations — the binding fails safe rather
// than silently resuming mid-protocol.
type Conn struct {
	ref     ref.ServiceRef
	sid     *sidl.SID
	session string
	pool    *wire.Pool
}

// Bind opens a binding to r, fetching the SID from the service itself.
func Bind(ctx context.Context, pool *wire.Pool, r ref.ServiceRef) (*Conn, error) {
	sid, err := Describe(ctx, pool, r)
	if err != nil {
		return nil, err
	}
	return BindWithSID(pool, r, sid)
}

// BindWithSID opens a binding using an already-known SID (for example
// one obtained from a browser listing). No network traffic occurs until
// the first invocation.
func BindWithSID(pool *wire.Pool, r ref.ServiceRef, sid *sidl.SID) (*Conn, error) {
	if sid == nil {
		return nil, ErrNilService
	}
	// Probe connectivity now so binding to a dead provider fails at
	// bind time (the trader's failover path depends on that), not on
	// the first invocation. The probe runs under the pool dialer's own
	// bound (BindWithSID takes no context by design: with a cached SID
	// no RPC happens here, only at most one dial).
	if _, err := pool.Get(context.Background(), r.Endpoint); err != nil {
		return nil, err
	}
	return &Conn{ref: r, sid: sid, session: newSessionID(), pool: pool}, nil
}

func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable environment breakage.
		panic("cosm: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Ref returns the bound service reference.
func (c *Conn) Ref() ref.ServiceRef { return c.ref }

// SID returns the bound service's description.
func (c *Conn) SID() *sidl.SID { return c.sid }

// Session returns the binding's session identity.
func (c *Conn) Session() string { return c.session }

// Invoke calls opName with the given in/inout arguments (positionally).
// Argument types must conform to the declared parameter types; values of
// extended subtypes are projected to the declared base types before
// marshalling.
func (c *Conn) Invoke(ctx context.Context, opName string, args ...*xcode.Value) (*Result, error) {
	op, ok := c.sid.Op(opName)
	if !ok {
		return nil, fmt.Errorf("%w: %q in %s", ErrUnknownOp, opName, c.sid.ServiceName)
	}
	body, err := encodeCallBody(op, c.session, args)
	if err != nil {
		return nil, err
	}
	return c.roundTrip(ctx, op, body)
}

// Call is Invoke for a caller that has Go types for the operation: args
// are encoded as the in/inout parameter types the bound SID declares —
// the peer's, so what an older peer does not declare is left out — and
// the operation result is decoded into what result points to (see
// xcode.Encode and Decode). A nil result discards it; out/inout results
// are not bound, use Invoke for operations that have them.
func (c *Conn) Call(ctx context.Context, opName string, result any, args ...any) error {
	op, ok := c.sid.Op(opName)
	if !ok {
		return fmt.Errorf("%w: %q in %s", ErrUnknownOp, opName, c.sid.ServiceName)
	}
	if want := inCount(op); len(args) != want {
		return fmt.Errorf("%w: op %s takes %d in-arguments, got %d", ErrBadArgs, opName, want, len(args))
	}
	body := appendChunk(nil, []byte(c.session))
	i := 0
	for _, p := range op.Params {
		if p.Dir == sidl.Out {
			continue
		}
		v, err := xcode.Encode(p.Type, args[i])
		if err != nil {
			return fmt.Errorf("%w: argument %q of op %s: %v", ErrBadArgs, p.Name, opName, err)
		}
		body = appendChunk(body, xcode.Marshal(v))
		i++
	}
	res, err := c.roundTrip(ctx, op, body)
	if err != nil || result == nil {
		return err
	}
	if res.Value == nil {
		return fmt.Errorf("%w: op %s returns nothing to decode", ErrBadResult, opName)
	}
	if err := xcode.Decode(res.Value, result); err != nil {
		return fmt.Errorf("%w: result of op %s: %v", ErrBadResult, opName, err)
	}
	return nil
}

// roundTrip sends one encoded call body and decodes the reply.
func (c *Conn) roundTrip(ctx context.Context, op sidl.Op, body []byte) (*Result, error) {
	// One dial, one send, no transparent retry: the operation may not
	// be idempotent, and replaying it could execute it twice. Callers
	// that want recovery re-run their protocol from the top.
	client, err := c.pool.Get(ctx, c.ref.Endpoint)
	if err != nil {
		return nil, err
	}
	respBody, err := client.Call(ctx, &wire.Request{Service: c.ref.Service, Op: op.Name, Body: body})
	if err != nil {
		return nil, err
	}
	result, outs, err := decodeCallResult(op, respBody)
	if err != nil {
		return nil, err
	}
	return &Result{Value: result, Outs: outs}, nil
}
