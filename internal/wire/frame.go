package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
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
//   - response payloads carry a retry-after hint (see appendFrame).
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

const (
	// frameReadBuf sizes the buffered reader of each connection. Every
	// frame's header, a request's TTL and its whole trace-metadata
	// section are parsed in place out of that buffer, so it must hold
	// the longest request prefix; the constant below fails to compile
	// when it does not.
	frameReadBuf = 512
	// frameBufMax caps the frame buffers frameBufs keeps: a larger frame
	// is assembled in a buffer the pool lets go, so one large reply does
	// not pin its size for the life of the process.
	frameBufMax = 64 << 10
)

const _ = uint(frameReadBuf - (frameHeaderLen + frameTTLLen + 1 + frameMaxMeta))

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
	// payload is the frame's body as read: one string, which what is
	// decoded from it shares. On write, a frame carrying req or resp has
	// that encoded as its payload instead (see appendFrame); payload is
	// written as it is otherwise.
	payload string
	req     *Request
	resp    *Response
}

// frameBufs holds the buffers frames are assembled in, and the call
// bodies lent by BorrowBuf. It is shared by every connection of the
// process rather than kept per connection, so idle connections hold no
// write buffer.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, frameReadBuf)
	return &b
}}

// BorrowBuf lends an empty buffer from the pool frames are assembled
// in, for a call body to be encoded into. The borrower hands it back
// exactly once, when nothing reads the body any more: a caller with
// ReleaseBuf once the call is written, a handler by setting
// Response.Buf, so that the server hands it back after the write.
func BorrowBuf() *[]byte {
	return frameBufs.Get().(*[]byte)
}

// ReleaseBuf hands back a buffer BorrowBuf lent, with *bp as the
// borrower last grew it; one that grew past frameBufMax is left to the
// collector. A nil bp is ignored.
func ReleaseBuf(bp *[]byte) {
	if bp != nil && cap(*bp) <= frameBufMax {
		*bp = (*bp)[:0]
		frameBufs.Put(bp)
	}
}

// sendFrame writes f with a single Write, which keeps frames atomic
// with respect to the connection-level write mutex held by the caller.
// The frame is assembled in a buffer from frameBufs that goes back to
// the pool once Write returns (an io.Writer may not retain it).
func sendFrame(w io.Writer, f *frame) error {
	bp := BorrowBuf()
	buf, err := appendFrame(*bp, f)
	if err == nil {
		_, err = w.Write(buf)
	}
	*bp = buf
	ReleaseBuf(bp)
	return err
}

// appendFrame renders f onto dst: the header, for a request its TTL
// and trace-metadata section, then the payload. A request payload is
// the service and operation names, each uvarint-length-prefixed,
// followed by the body; a response payload is the status, the
// retry-after hint (uvarint milliseconds), the error message
// (length-prefixed) and the body. A payload past MaxFramePayload is
// refused before anything is appended, so dst comes back as it was.
func appendFrame(dst []byte, f *frame) ([]byte, error) {
	n := payloadLen(f)
	if n > MaxFramePayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	dst = append(dst, frameMagic[0], frameMagic[1], protoVersion, f.ftype)
	dst = binary.BigEndian.AppendUint64(dst, f.id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	if f.ftype == frameRequest {
		dst = binary.BigEndian.AppendUint64(dst, f.ttl)
		dst = appendFrameMeta(dst, f.traceID, f.parentID)
	}
	switch {
	case f.req != nil:
		dst = appendString(dst, f.req.Service)
		dst = appendString(dst, f.req.Op)
		return append(dst, f.req.Body...), nil
	case f.resp != nil:
		dst = append(dst, byte(f.resp.Status))
		dst = binary.AppendUvarint(dst, retryAfterMillis(f.resp))
		dst = appendString(dst, f.resp.ErrMsg)
		return append(dst, f.resp.Body...), nil
	}
	return append(dst, f.payload...), nil
}

// payloadLen is the length of the payload appendFrame renders for f.
func payloadLen(f *frame) int {
	switch {
	case f.req != nil:
		return stringLen(f.req.Service) + stringLen(f.req.Op) + len(f.req.Body)
	case f.resp != nil:
		return 1 + uvarintLen(retryAfterMillis(f.resp)) + stringLen(f.resp.ErrMsg) + len(f.resp.Body)
	}
	return len(f.payload)
}

func retryAfterMillis(r *Response) uint64 { return uint64(r.RetryAfter / time.Millisecond) }

// stringLen is the length appendString renders s in.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// uvarintLen is the length binary.AppendUvarint renders x in.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// appendFrameMeta renders the trace-metadata section: a single length
// byte, then — when there is anything to carry — the two IDs, each
// length-prefixed by one byte. Oversized IDs are dropped rather than
// corrupting the frame: tracing is best-effort metadata.
func appendFrameMeta(dst []byte, traceID, parentID string) []byte {
	if len(traceID) > frameMaxMeta/2-1 || len(parentID) > frameMaxMeta/2-1 {
		traceID, parentID = "", ""
	}
	if traceID == "" && parentID == "" {
		return append(dst, 0)
	}
	dst = append(dst, byte(2+len(traceID)+len(parentID)), byte(len(traceID)))
	dst = append(dst, traceID...)
	dst = append(dst, byte(len(parentID)))
	return append(dst, parentID...)
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

// frameReader reads the frames of one connection through a buffer of
// frameReadBuf bytes. The header, TTL and trace metadata are parsed in
// place; only the payload and non-empty trace IDs are allocated.
type frameReader struct {
	buf *bufio.Reader
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{buf: bufio.NewReaderSize(r, frameReadBuf)}
}

// next reads one frame, its payload into one string (text): how a
// server reads a request and a client a reply, so that every string
// decoded from the payload can be a window of it.
func (r *frameReader) next() (frame, error) {
	f, n, err := r.head()
	if err != nil {
		return frame{}, err
	}
	if f.payload, err = r.text(n); err != nil {
		return frame{}, err
	}
	return f, nil
}

// head reads one frame up to its payload and returns the payload's
// length, which next reads after it. A stream that ends cleanly between
// frames returns io.EOF; one that ends inside a header returns
// io.ErrUnexpectedEOF.
func (r *frameReader) head() (frame, int, error) {
	hdr, err := r.buf.Peek(frameHeaderLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, 0, err
	}
	if hdr[0] != frameMagic[0] || hdr[1] != frameMagic[1] {
		return frame{}, 0, fmt.Errorf("%w: bad magic %x", ErrBadFrame, hdr[:2])
	}
	if hdr[2] != protoVersion {
		return frame{}, 0, fmt.Errorf("%w: version %d", ErrBadFrame, hdr[2])
	}
	ftype := hdr[3]
	if ftype != frameRequest && ftype != frameResponse && ftype != frameCancel {
		return frame{}, 0, fmt.Errorf("%w: frame type %d", ErrBadFrame, ftype)
	}
	f := frame{ftype: ftype, id: binary.BigEndian.Uint64(hdr[4:])}
	n := binary.BigEndian.Uint32(hdr[12:])
	prefix := frameHeaderLen
	if ftype == frameRequest {
		// Peeking further may move the buffered bytes: hdr is stale
		// from here on.
		ext, err := r.buf.Peek(frameHeaderLen + frameTTLLen)
		if err != nil {
			return frame{}, 0, fmt.Errorf("%w: truncated deadline: %v", ErrBadFrame, err)
		}
		f.ttl = binary.BigEndian.Uint64(ext[frameHeaderLen:])
		prefix = frameHeaderLen + frameTTLLen + 1
		if ext, err = r.buf.Peek(prefix); err != nil {
			return frame{}, 0, fmt.Errorf("%w: truncated trace metadata: %v", ErrBadFrame, err)
		}
		if m := int(ext[prefix-1]); m > 0 {
			if ext, err = r.buf.Peek(prefix + m); err != nil {
				return frame{}, 0, fmt.Errorf("%w: truncated trace metadata: %v", ErrBadFrame, err)
			}
			if f.traceID, f.parentID, err = decodeFrameMeta(ext[prefix:]); err != nil {
				return frame{}, 0, err
			}
			prefix += m
		}
	}
	r.buf.Discard(prefix) // peeked, so buffered: it cannot fail
	if n > MaxFramePayload {
		return frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return f, int(n), nil
}

// text reads an n-byte payload into one string of exactly n bytes. The
// bytes pass through a buffer from frameBufs of at most frameBufMax
// bytes, which a read larger than the connection's reader buffer fills
// straight from the connection; the string is allocated once the first
// of them has arrived, so a header claiming MaxFramePayload with nothing
// behind it costs no more than that buffer.
func (r *frameReader) text(n int) (string, error) {
	bp := BorrowBuf()
	buf := slices.Grow(*bp, min(n, frameBufMax))
	defer func() {
		*bp = buf
		ReleaseBuf(bp)
	}()
	var s strings.Builder
	for s.Len() < n {
		chunk := buf[:min(n-s.Len(), cap(buf))]
		if _, err := io.ReadFull(r.buf, chunk); err != nil {
			return "", truncatedPayload(err)
		}
		if s.Cap() == 0 {
			s.Grow(n)
		}
		s.Write(chunk)
	}
	return s.String(), nil
}

func truncatedPayload(err error) error {
	return fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
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
// opaque body (encoded by the layer above, typically xcode). A caller
// sends Body. A Handler reads Received: a server reads each request's
// payload into one string, and Service, Op and Received are windows of
// it (DESIGN.md section 6).
type Request struct {
	Service string
	Op      string
	// Body is the body a caller sends; nil in a request a server read.
	Body []byte
	// Received is the body of a request a server read.
	Received string

	// resp is the response the server lends the handler (see Reply).
	resp *Response
}

// Reply returns a response with status and errMsg set, for a Handler
// to fill and return: of a request a Server read, the one the server
// lends with it and takes back after the write, so that a Handler
// returning it allocates none; of any other, a new one.
func (r *Request) Reply(status Status, errMsg string) *Response {
	resp := r.resp
	if resp == nil {
		resp = new(Response)
	}
	*resp = Response{Status: status, ErrMsg: errMsg}
	return resp
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

// Response is the reply to one Request, as its handler returns it. The
// caller reads it back as a reply (see Client.Call), whose body is a
// string.
type Response struct {
	Status Status
	ErrMsg string
	Body   []byte
	// Buf, when set, is the buffer Body was encoded in, lent by
	// BorrowBuf. The server hands it back once the response is written
	// or dropped, so whoever passes the response on keeps neither Buf
	// nor Body.
	Buf *[]byte
	// RetryAfter is the server's backoff hint on StatusOverloaded:
	// roughly how long the caller should wait before retrying. Zero
	// means no hint.
	RetryAfter time.Duration
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// uvarint is binary.Uvarint over a string. Converting it allocates
// nothing: the bytes do not escape, and they are at most
// binary.MaxVarintLen64+1, one past the longest uvarint so that an
// overlong one still reads as overlong.
func uvarint(data string) (uint64, int) {
	return binary.Uvarint([]byte(data[:min(len(data), binary.MaxVarintLen64+1)]))
}

// consumeString reads a length-prefixed string, a window of data.
func consumeString(data string, limit int) (s, rest string, err error) {
	n, size := uvarint(data)
	if size <= 0 {
		return "", "", fmt.Errorf("%w: truncated string length", ErrBadFrame)
	}
	data = data[size:]
	if n > uint64(limit) || uint64(len(data)) < n {
		return "", "", fmt.Errorf("%w: string length %d", ErrBadFrame, n)
	}
	return data[:n], data[n:], nil
}

const maxNameLen = 4096

// decodeRequest reads a request payload into req: its service, op and
// body are windows of payload.
func decodeRequest(payload string, req *Request) error {
	service, rest, err := consumeString(payload, maxNameLen)
	if err != nil {
		return err
	}
	op, rest, err := consumeString(rest, maxNameLen)
	if err != nil {
		return err
	}
	req.Service, req.Op, req.Received = service, op, rest
	return nil
}

// reply is a Response as a client reads it: the payload was read into
// one string (frameReader.text), and msg and body are windows of it.
type reply struct {
	status     Status
	retryAfter time.Duration
	msg        string
	body       string
}

func decodeReply(payload string) (reply, error) {
	if len(payload) < 1 {
		return reply{}, fmt.Errorf("%w: empty response", ErrBadFrame)
	}
	status := Status(payload[0])
	if status < StatusOK || status > StatusDeadlineExpired {
		return reply{}, fmt.Errorf("%w: status %d", ErrBadFrame, payload[0])
	}
	ms, size := uvarint(payload[1:])
	if size <= 0 {
		return reply{}, fmt.Errorf("%w: truncated retry-after", ErrBadFrame)
	}
	if ms > math.MaxInt64/uint64(time.Millisecond) {
		// Found by FuzzReadFrame: as a Duration this wraps negative.
		return reply{}, fmt.Errorf("%w: retry-after %d ms", ErrBadFrame, ms)
	}
	msg, rest, err := consumeString(payload[1+size:], MaxFramePayload)
	if err != nil {
		return reply{}, err
	}
	return reply{status: status, retryAfter: time.Duration(ms) * time.Millisecond, msg: msg, body: rest}, nil
}
