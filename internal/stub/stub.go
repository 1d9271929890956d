// Package stub is the counter-example the paper argues against: a
// conventional, statically compiled RPC client and server for the car
// rental service (section 1's "most current implementations ... require
// the client application to have very specific a-priori knowledge of the
// service addressed as well as about the related protocol").
//
// Everything here is hand-written against compile-time knowledge of
// CarRentalService: Go structs mirror the SIDL types, and the
// marshalling code is fixed. It exists (a) as the baseline for the
// Fig. 3 experiment, quantifying what dynamic mediation costs relative
// to compiled stubs, and (b) as a byte-compatibility proof: the static
// stubs speak exactly the wire encoding the dynamic runtime derives from
// the SID, so a static client can call a dynamically dispatched server
// and vice versa — the property a stub generator would rely on.
package stub

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cosm/internal/ref"
	"cosm/internal/wire"
)

// CarModel mirrors the SIDL enum CarModel_t.
type CarModel uint8

// Car models, in SIDL ordinal order.
const (
	AUDI CarModel = iota
	FIATUno
	VWGolf
)

// Currency mirrors the SIDL enum Currency_t.
type Currency uint8

// Currencies, in SIDL ordinal order.
const (
	USD Currency = iota
	DEM
	FF
	SFR
	GBP
)

// SelectCarRequest mirrors SelectCar_t.
type SelectCarRequest struct {
	Model       CarModel
	BookingDate string
	Days        int32
}

// SelectCarReturn mirrors SelectCarReturn_t.
type SelectCarReturn struct {
	Available bool
	Charge    float64
	Currency  Currency
}

// BookCarReturn mirrors BookCarReturn_t.
type BookCarReturn struct {
	OK           bool
	Confirmation string
}

// ErrDecode reports malformed response bytes.
var ErrDecode = errors.New("stub: malformed response")

// --- hand-rolled wire encoding, byte-compatible with the dynamic
// runtime's SID-derived encoding ---

func appendChunk(dst, chunk []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(chunk)))
	return append(dst, chunk...)
}

// uvarint is binary.Uvarint over a string. Converting it allocates
// nothing: the bytes do not escape, and they are at most
// binary.MaxVarintLen64+1, one past the longest uvarint so that an
// overlong one still reads as overlong.
func uvarint(data string) (uint64, int) {
	return binary.Uvarint([]byte(data[:min(len(data), binary.MaxVarintLen64+1)]))
}

// consumeChunk splits a length-prefixed chunk, a window of data, off a
// request body or a reply.
func consumeChunk(data string) (chunk, rest string, err error) {
	n, size := uvarint(data)
	if size <= 0 || uint64(len(data)-size) < n {
		return "", "", ErrDecode
	}
	return data[size : size+int(n)], data[size+int(n):], nil
}

func encodeSelectCar(req SelectCarRequest) []byte {
	body := binary.AppendUvarint(nil, uint64(req.Model))
	body = binary.AppendUvarint(body, uint64(len(req.BookingDate)))
	body = append(body, req.BookingDate...)
	return binary.BigEndian.AppendUint32(body, uint32(req.Days))
}

func decodeSelectCar(data string) (SelectCarRequest, error) {
	var req SelectCarRequest
	model, size := uvarint(data)
	if size <= 0 || model > uint64(VWGolf) {
		return req, ErrDecode
	}
	req.Model = CarModel(model)
	data = data[size:]
	n, size := uvarint(data)
	if size <= 0 || uint64(len(data)-size) < n {
		return req, ErrDecode
	}
	req.BookingDate = data[size : size+int(n)]
	data = data[size+int(n):]
	if len(data) != 4 {
		return req, ErrDecode
	}
	req.Days = int32(binary.BigEndian.Uint32([]byte(data)))
	return req, nil
}

func encodeSelectReturn(r SelectCarReturn) []byte {
	body := make([]byte, 0, 16)
	body = appendBool(body, r.Available)
	body = binary.BigEndian.AppendUint64(body, math.Float64bits(r.Charge))
	return binary.AppendUvarint(body, uint64(r.Currency))
}

func decodeSelectReturn(data string) (SelectCarReturn, error) {
	var r SelectCarReturn
	if len(data) < 10 {
		return r, ErrDecode
	}
	switch data[0] {
	case 0:
	case 1:
		r.Available = true
	default:
		return r, ErrDecode
	}
	r.Charge = math.Float64frombits(binary.BigEndian.Uint64([]byte(data[1:9])))
	cur, size := uvarint(data[9:])
	if size <= 0 || len(data[9+size:]) != 0 || cur > uint64(GBP) {
		return r, ErrDecode
	}
	r.Currency = Currency(cur)
	return r, nil
}

func encodeBookReturn(r BookCarReturn) []byte {
	body := make([]byte, 0, 8+len(r.Confirmation))
	body = appendBool(body, r.OK)
	body = binary.AppendUvarint(body, uint64(len(r.Confirmation)))
	return append(body, r.Confirmation...)
}

func decodeBookReturn(data string) (BookCarReturn, error) {
	var r BookCarReturn
	if len(data) < 2 || data[0] > 1 {
		return r, ErrDecode
	}
	r.OK = data[0] == 1
	n, size := uvarint(data[1:])
	if size <= 0 || uint64(len(data)-1-size) != n {
		return r, ErrDecode
	}
	r.Confirmation = data[1+size:]
	return r, nil
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Client is the statically compiled car rental client.
type Client struct {
	client  *wire.Client
	service string
	session string
}

// Dial connects the static client to the car rental service behind r.
// Unlike the generic client it transfers no SID: the interface knowledge
// is compiled in.
func Dial(pool *wire.Pool, r ref.ServiceRef, session string) (*Client, error) {
	c, err := pool.Get(context.Background(), r.Endpoint)
	if err != nil {
		return nil, err
	}
	return &Client{client: c, service: r.Service, session: session}, nil
}

// SelectCar invokes SelectCar with compiled marshalling.
func (c *Client) SelectCar(ctx context.Context, req SelectCarRequest) (SelectCarReturn, error) {
	body := appendChunk(nil, []byte(c.session))
	body = appendChunk(body, encodeSelectCar(req))
	respBody, err := c.client.Call(ctx, &wire.Request{Service: c.service, Op: "SelectCar", Body: body})
	if err != nil {
		return SelectCarReturn{}, err
	}
	chunk, rest, err := consumeChunk(respBody)
	if err != nil || len(rest) != 0 {
		return SelectCarReturn{}, fmt.Errorf("%w: SelectCar response", ErrDecode)
	}
	return decodeSelectReturn(chunk)
}

// Commit invokes Commit with compiled marshalling.
func (c *Client) Commit(ctx context.Context) (BookCarReturn, error) {
	body := appendChunk(nil, []byte(c.session))
	respBody, err := c.client.Call(ctx, &wire.Request{Service: c.service, Op: "Commit", Body: body})
	if err != nil {
		return BookCarReturn{}, err
	}
	chunk, rest, err := consumeChunk(respBody)
	if err != nil || len(rest) != 0 {
		return BookCarReturn{}, fmt.Errorf("%w: Commit response", ErrDecode)
	}
	return decodeBookReturn(chunk)
}

// Impl is the application logic behind the static server.
type Impl interface {
	SelectCar(req SelectCarRequest) (SelectCarReturn, error)
	Commit() (BookCarReturn, error)
}

// Handler adapts an Impl to the wire layer with compiled marshalling and
// no SID, FSM tracking or dynamic dispatch — the minimal 1994 RPC
// server. Note what is lost versus the cosm runtime: the service cannot
// be described, browsed, or protocol-checked.
func Handler(impl Impl) wire.Handler {
	return wire.HandlerFunc(func(_ context.Context, _ string, req *wire.Request) *wire.Response {
		// Skip the session chunk: the static server keeps no protocol
		// state.
		_, rest, err := consumeChunk(req.Received)
		if err != nil {
			return &wire.Response{Status: wire.StatusBadRequest, ErrMsg: err.Error()}
		}
		switch req.Op {
		case "SelectCar":
			chunk, _, err := consumeChunk(rest)
			if err != nil {
				return &wire.Response{Status: wire.StatusBadRequest, ErrMsg: err.Error()}
			}
			in, err := decodeSelectCar(chunk)
			if err != nil {
				return &wire.Response{Status: wire.StatusBadRequest, ErrMsg: err.Error()}
			}
			out, err := impl.SelectCar(in)
			if err != nil {
				return &wire.Response{Status: wire.StatusAppError, ErrMsg: err.Error()}
			}
			return &wire.Response{Status: wire.StatusOK, Body: appendChunk(nil, encodeSelectReturn(out))}
		case "Commit":
			out, err := impl.Commit()
			if err != nil {
				return &wire.Response{Status: wire.StatusAppError, ErrMsg: err.Error()}
			}
			return &wire.Response{Status: wire.StatusOK, Body: appendChunk(nil, encodeBookReturn(out))}
		default:
			return &wire.Response{Status: wire.StatusNoOp, ErrMsg: req.Op}
		}
	})
}

// FixedImpl is a trivial Impl with constant pricing, used by tests and
// benchmarks.
type FixedImpl struct {
	ChargePerDay float64
}

// SelectCar prices the selection.
func (f FixedImpl) SelectCar(req SelectCarRequest) (SelectCarReturn, error) {
	if req.Days <= 0 {
		return SelectCarReturn{}, errors.New("stub: days must be positive")
	}
	return SelectCarReturn{Available: true, Charge: f.ChargePerDay * float64(req.Days), Currency: USD}, nil
}

// Commit confirms the booking.
func (f FixedImpl) Commit() (BookCarReturn, error) {
	return BookCarReturn{OK: true, Confirmation: "RES-STATIC"}, nil
}
