package wire

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadFrame: frames come off connections anyone can open, so the
// frame reader — the buffered one every connection reads through — and
// the request and response payload decoders behind it must refuse
// damage with an error — never a panic, never an allocation past
// MaxFramePayload however large a length the header claims — and
// whatever does decode must survive its own encoding. A payload is read
// into one string, as a server reads a request and a client a reply,
// and what is decoded from it are windows of that string. The corpus
// under testdata/fuzz/FuzzReadFrame holds the frames the package's
// codec tests write (round trips, the trace matrix, each TestFrameErrors
// case, the pinned request and response payloads), one file each, and a
// request carrying a call body: a session and three arguments.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte("CW\x02\x03\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00"))     // cancel frame, id 9
	f.Add([]byte("CW\x02\x02\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x00\x00\x01")) // 16 MiB claimed, 1 byte sent
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frame
		var err error
		bounded(t, len(data), func() { fr, err = newFrameReader(bytes.NewReader(data)).next() })
		if err != nil {
			return
		}
		if len(fr.payload) > len(data) {
			t.Fatalf("%d payload bytes out of %d input bytes", len(fr.payload), len(data))
		}

		// Equal, not the same bytes: trailing trace metadata is tolerated
		// on read and not written back, and IDs too long to write are
		// dropped — tracing is best-effort.
		want := fr
		if len(fr.traceID) > frameMaxMeta/2-1 || len(fr.parentID) > frameMaxMeta/2-1 {
			want.traceID, want.parentID = "", ""
		}
		if back := roundTrip(t, &fr); !sameFrame(back, want) {
			t.Fatalf("frame %+v re-encoded and read as %+v", want, back)
		}

		switch fr.ftype {
		case frameRequest:
			req, err := readRequest(fr.payload)
			if err != nil {
				return
			}
			if !strings.HasSuffix(fr.payload, req.Received) {
				t.Fatalf("request body %q is not the tail of payload %q", req.Received, fr.payload)
			}
			sent := &Request{Service: req.Service, Op: req.Op, Body: []byte(req.Received)}
			again, err := readRequest(requestPayload(t, sent))
			if err != nil || again.Service != req.Service || again.Op != req.Op || again.Received != req.Received {
				t.Fatalf("request %+v re-encoded and decoded as %+v, %v", req, again, err)
			}
		case frameResponse:
			rep, err := decodeReply(fr.payload)
			if err != nil {
				return
			}
			resp := &Response{Status: rep.status, ErrMsg: rep.msg, Body: []byte(rep.body), RetryAfter: rep.retryAfter}
			if again, err := decodeReply(responsePayload(t, resp)); err != nil || again != rep {
				t.Fatalf("reply %+v re-encoded and decoded as %+v, %v", rep, again, err)
			}
		}
	})
}

// bounded runs read and fails the test if it allocated more than
// MaxFramePayload and a frame buffer past what n bytes of input account
// for. TotalAlloc counts the whole process, so a breach has to
// reproduce: a read that really is out of bounds is so every time, what
// another goroutine allocated meanwhile is not.
func bounded(t *testing.T, n int, read func()) {
	for try, limit := 0, uint64(MaxFramePayload+frameBufMax+4*n); ; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		grew := after.TotalAlloc - before.TotalAlloc
		if grew <= limit {
			return
		}
		if try == 2 {
			t.Fatalf("reading %d bytes allocated %d, three times over", n, grew)
		}
	}
}
