package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// Frame layout: a fixed header followed by the payload.
//
//	0      2      3       4            12           16
//	+------+------+-------+------------+------------+----------+
//	| "CW" | ver  | ftype | id (be64)  | len (be32) | payload  |
//	+------+------+-------+------------+------------+----------+
//
// id correlates responses with requests over one multiplexed connection.
//
// Frames have exactly one version (see DESIGN.md section 12 for the
// compatibility policy); a frame carrying any other is malformed.
//
//   - request frames carry an 8-byte big-endian TTL (microseconds of
//     caller budget remaining at send time; 0 = unbounded) between the
//     fixed header and the payload, propagating the caller's deadline
//     to the server. A TTL is relative, not absolute, so it survives
//     clock skew between nodes;
//   - after the TTL, request frames carry a trace-metadata section: one
//     length byte, then (when non-zero) the request's trace ID and the
//     caller's span ID, each length-prefixed. A zero length byte is the
//     entire section for untraced requests;
//   - a cancel frame (no payload) tells the server the caller of the
//     identified request has given up, so server-side work can be
//     cancelled;
//   - response payloads carry a retry-after hint (see encodeResponse).
const (
	frameHeaderLen = 16
	frameTTLLen    = 8
	protoVersion   = 2

	// frameMaxMeta bounds the trace-metadata section (it is
	// length-prefixed by a single byte anyway); each ID within is
	// length-prefixed by one byte too, capping it at 255 bytes.
	frameMaxMeta = 255

	frameRequest  = 1
	frameResponse = 2
	// frameCancel carries no payload; its id names the request whose
	// server-side work should be cancelled.
	frameCancel = 3
)

// MaxFramePayload bounds a frame payload; larger frames are rejected on
// both send and receive.
const MaxFramePayload = 16 << 20

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFramePayload")
	ErrBadFrame      = errors.New("wire: malformed frame")
)

var frameMagic = [2]byte{'C', 'W'}

type frame struct {
	ftype byte
	id    uint64
	// ttl is the caller's remaining budget for request frames
	// (microseconds; 0 means no deadline). Only meaningful when
	// ftype == frameRequest.
	ttl uint64
	// traceID and parentID are the request's trace metadata (requests
	// only; both empty for untraced requests). traceID identifies the
	// whole logical request across every hop; parentID is the calling
	// side's span.
	traceID  string
	parentID string
	payload  []byte
}

// encodeFrameMeta renders the trace-metadata section: a single length
// byte, then — when there is anything to carry — the two IDs, each
// length-prefixed by one byte. Oversized IDs are dropped rather than
// corrupting the frame: tracing is best-effort metadata.
func encodeFrameMeta(traceID, parentID string) []byte {
	if len(traceID) > frameMaxMeta/2-1 || len(parentID) > frameMaxMeta/2-1 {
		traceID, parentID = "", ""
	}
	if traceID == "" && parentID == "" {
		return []byte{0}
	}
	meta := make([]byte, 0, 3+len(traceID)+len(parentID))
	meta = append(meta, 0) // section length, patched below
	meta = append(meta, byte(len(traceID)))
	meta = append(meta, traceID...)
	meta = append(meta, byte(len(parentID)))
	meta = append(meta, parentID...)
	meta[0] = byte(len(meta) - 1)
	return meta
}

// decodeFrameMeta parses the body of a trace-metadata section (the
// bytes after the section length byte).
func decodeFrameMeta(meta []byte) (traceID, parentID string, err error) {
	rest := meta
	take := func() (string, error) {
		if len(rest) == 0 {
			return "", fmt.Errorf("%w: truncated trace metadata", ErrBadFrame)
		}
		n := int(rest[0])
		rest = rest[1:]
		if len(rest) < n {
			return "", fmt.Errorf("%w: truncated trace metadata", ErrBadFrame)
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s, nil
	}
	if traceID, err = take(); err != nil {
		return "", "", err
	}
	if parentID, err = take(); err != nil {
		return "", "", err
	}
	// Trailing bytes are tolerated: a future version may append more
	// metadata, and old readers should keep working.
	return traceID, parentID, nil
}

func writeFrame(w io.Writer, f frame) error {
	if len(f.payload) > MaxFramePayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.payload))
	}
	var ext []byte
	if f.ftype == frameRequest {
		var ttl [frameTTLLen]byte
		binary.BigEndian.PutUint64(ttl[:], f.ttl)
		ext = append(ttl[:], encodeFrameMeta(f.traceID, f.parentID)...)
	}
	hdr := make([]byte, frameHeaderLen, frameHeaderLen+len(ext)+len(f.payload))
	hdr[0], hdr[1] = frameMagic[0], frameMagic[1]
	hdr[2] = protoVersion
	hdr[3] = f.ftype
	binary.BigEndian.PutUint64(hdr[4:], f.id)
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(f.payload)))
	// One Write call per frame keeps frames atomic with respect to the
	// connection-level write mutex held by the caller.
	buf := append(hdr, ext...)
	buf = append(buf, f.payload...)
	_, err := w.Write(buf)
	return err
}

func readFrame(r io.Reader) (frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	if hdr[0] != frameMagic[0] || hdr[1] != frameMagic[1] {
		return frame{}, fmt.Errorf("%w: bad magic %x", ErrBadFrame, hdr[:2])
	}
	if hdr[2] != protoVersion {
		return frame{}, fmt.Errorf("%w: version %d", ErrBadFrame, hdr[2])
	}
	ftype := hdr[3]
	if ftype != frameRequest && ftype != frameResponse && ftype != frameCancel {
		return frame{}, fmt.Errorf("%w: frame type %d", ErrBadFrame, ftype)
	}
	f := frame{ftype: ftype, id: binary.BigEndian.Uint64(hdr[4:])}
	if ftype == frameRequest {
		var ttl [frameTTLLen]byte
		if _, err := io.ReadFull(r, ttl[:]); err != nil {
			return frame{}, fmt.Errorf("%w: truncated deadline: %v", ErrBadFrame, err)
		}
		f.ttl = binary.BigEndian.Uint64(ttl[:])
		var metaLen [1]byte
		if _, err := io.ReadFull(r, metaLen[:]); err != nil {
			return frame{}, fmt.Errorf("%w: truncated trace metadata: %v", ErrBadFrame, err)
		}
		if n := int(metaLen[0]); n > 0 {
			meta := make([]byte, n)
			if _, err := io.ReadFull(r, meta); err != nil {
				return frame{}, fmt.Errorf("%w: truncated trace metadata: %v", ErrBadFrame, err)
			}
			traceID, parentID, err := decodeFrameMeta(meta)
			if err != nil {
				return frame{}, err
			}
			f.traceID, f.parentID = traceID, parentID
		}
	}
	n := binary.BigEndian.Uint32(hdr[12:])
	if n > MaxFramePayload {
		return frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return frame{}, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	f.payload = payload
	return f, nil
}

// ttlOf converts a context deadline into the frame TTL field: the
// remaining budget in microseconds, at least 1 so a propagated deadline
// is never mistaken for "no deadline".
func ttlOf(deadline time.Time, now time.Time) uint64 {
	rem := deadline.Sub(now)
	if rem <= 0 {
		return 1
	}
	us := uint64(rem / time.Microsecond)
	if us == 0 {
		us = 1
	}
	return us
}

// Request is one RPC request: a service name, an operation name, and an
// opaque body (encoded by the layer above, typically xcode).
type Request struct {
	Service string
	Op      string
	Body    []byte
}

// Status is the outcome class of a response.
type Status uint8

// Response statuses.
const (
	// StatusOK: the operation executed; Body holds the encoded result.
	StatusOK Status = iota + 1
	// StatusAppError: the service's handler returned an error; ErrMsg
	// carries its text.
	StatusAppError
	// StatusNoService: the node hosts no service with the given name.
	StatusNoService
	// StatusNoOp: the service hosts no such operation.
	StatusNoOp
	// StatusProtocol: the invocation violated the service's FSM protocol.
	StatusProtocol
	// StatusBadRequest: the request body could not be decoded.
	StatusBadRequest
	// StatusOverloaded: the server shed the request before
	// dispatching it — admission limits were exceeded or the server is
	// draining. The handler did not run, so retrying is always safe;
	// RetryAfter carries the server's backoff hint.
	StatusOverloaded
	// StatusDeadlineExpired: the request's propagated deadline had
	// already expired before dispatch, so the server refused to burn
	// cycles on work whose caller has given up. The handler did not run.
	StatusDeadlineExpired
)

// String returns a short name for the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAppError:
		return "application error"
	case StatusNoService:
		return "no such service"
	case StatusNoOp:
		return "no such operation"
	case StatusProtocol:
		return "protocol violation"
	case StatusBadRequest:
		return "bad request"
	case StatusOverloaded:
		return "overloaded"
	case StatusDeadlineExpired:
		return "deadline expired"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Response is the reply to one Request.
type Response struct {
	Status Status
	ErrMsg string
	Body   []byte
	// RetryAfter is the server's backoff hint on StatusOverloaded:
	// roughly how long the caller should wait before retrying. Zero
	// means no hint.
	RetryAfter time.Duration
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func consumeString(data []byte, limit int) (string, []byte, error) {
	n, size := binary.Uvarint(data)
	if size <= 0 {
		return "", nil, fmt.Errorf("%w: truncated string length", ErrBadFrame)
	}
	data = data[size:]
	if n > uint64(limit) || uint64(len(data)) < n {
		return "", nil, fmt.Errorf("%w: string length %d", ErrBadFrame, n)
	}
	return string(data[:n]), data[n:], nil
}

const maxNameLen = 4096

func encodeRequest(r *Request) []byte {
	buf := make([]byte, 0, len(r.Service)+len(r.Op)+len(r.Body)+16)
	buf = appendString(buf, r.Service)
	buf = appendString(buf, r.Op)
	return append(buf, r.Body...)
}

func decodeRequest(payload []byte) (*Request, error) {
	service, rest, err := consumeString(payload, maxNameLen)
	if err != nil {
		return nil, err
	}
	op, rest, err := consumeString(rest, maxNameLen)
	if err != nil {
		return nil, err
	}
	return &Request{Service: service, Op: op, Body: rest}, nil
}

// Response payload layout: status, retry-after (uvarint ms), errmsg,
// body.

func encodeResponse(r *Response) []byte {
	buf := make([]byte, 0, len(r.ErrMsg)+len(r.Body)+24)
	buf = append(buf, byte(r.Status))
	buf = binary.AppendUvarint(buf, uint64(r.RetryAfter/time.Millisecond))
	buf = appendString(buf, r.ErrMsg)
	return append(buf, r.Body...)
}

func decodeResponse(payload []byte) (*Response, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: empty response", ErrBadFrame)
	}
	status := Status(payload[0])
	if status < StatusOK || status > StatusDeadlineExpired {
		return nil, fmt.Errorf("%w: status %d", ErrBadFrame, payload[0])
	}
	ms, size := binary.Uvarint(payload[1:])
	if size <= 0 {
		return nil, fmt.Errorf("%w: truncated retry-after", ErrBadFrame)
	}
	if ms > math.MaxInt64/uint64(time.Millisecond) {
		// Found by FuzzReadFrame: as a Duration this wraps negative.
		return nil, fmt.Errorf("%w: retry-after %d ms", ErrBadFrame, ms)
	}
	msg, rest, err := consumeString(payload[1+size:], MaxFramePayload)
	if err != nil {
		return nil, err
	}
	return &Response{Status: status, ErrMsg: msg, Body: rest, RetryAfter: time.Duration(ms) * time.Millisecond}, nil
}
