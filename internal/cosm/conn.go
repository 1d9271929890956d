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
	if err := sid.UnmarshalText([]byte(body)); err != nil {
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
	reply, err := send(ctx, c, op, args, appendValue)
	if err != nil {
		return nil, err
	}
	res := new(Result)
	err = decodeCallResult(op, reply, func(t *sidl.Type, chunk string, out int) error {
		v, err := xcode.Unmarshal(t, chunk)
		if out < 0 {
			res.Value = v
		} else {
			res.Outs = append(res.Outs, v)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Call is Invoke for a caller that has Go types for the operation: args
// are encoded as the in/inout parameter types the bound SID declares —
// the peer's, so what an older peer does not declare is left out — and
// the operation result is decoded into what result points to (see
// xcode.AppendEncode and DecodeInto), straight between Go values and
// bytes. A nil result discards it; out/inout results are not bound, use
// Invoke for operations that have them. Whatever is not bound is still
// validated.
func (c *Conn) Call(ctx context.Context, opName string, result any, args ...any) error {
	op, ok := c.sid.Op(opName)
	if !ok {
		return fmt.Errorf("%w: %q in %s", ErrUnknownOp, opName, c.sid.ServiceName)
	}
	if result != nil && op.Result.Kind == sidl.Void {
		return fmt.Errorf("%w: op %s returns nothing to decode", ErrBadResult, opName)
	}
	reply, err := send(ctx, c, op, args, appendEncoded)
	if err != nil {
		return err
	}
	err = decodeCallResult(op, reply, func(t *sidl.Type, chunk string, out int) error {
		if out >= 0 {
			return xcode.DecodeInto(t, chunk, nil)
		}
		return xcode.DecodeInto(t, chunk, result)
	})
	if err != nil {
		return fmt.Errorf("%w: op %s: %v", ErrBadResult, opName, err)
	}
	return nil
}

// send makes one call of op and returns the reply body: one string,
// which what is decoded from it shares. The request body — the session,
// then args as encode encodes each — is encoded into a buffer borrowed
// from the frame pool, and handed back once Client.Call returns: it
// writes the request before it waits, and keeps nothing of it.
func send[A any](ctx context.Context, c *Conn, op sidl.Op, args []A, encode func(dst []byte, t *sidl.Type, arg A) ([]byte, error)) (string, error) {
	body := wire.BorrowBuf()
	defer wire.ReleaseBuf(body)
	var err error
	*body, err = appendCallArgs(appendChunk(*body, []byte(c.session)), op, args, encode)
	if err != nil {
		return "", err
	}
	// One dial, one send, no transparent retry: the operation may not
	// be idempotent, and replaying it could execute it twice. Callers
	// that want recovery re-run their protocol from the top.
	client, err := c.pool.Get(ctx, c.ref.Endpoint)
	if err != nil {
		return "", err
	}
	return client.Call(ctx, &wire.Request{Service: c.ref.Service, Op: op.Name, Body: *body})
}
