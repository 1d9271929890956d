package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadFrame: frames come off connections anyone can open, so the
// frame reader and the request and response payload decoders behind it
// must refuse damage with an error — never a panic, never an allocation
// past MaxFramePayload however large a length the header claims — and
// whatever does decode must survive its own encoding. The corpus under
// testdata/fuzz/FuzzReadFrame holds the frames the package's codec tests
// write (round trips, the trace matrix, each TestFrameErrors case, the
// pinned request and response payloads), one file each.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte("CW\x02\x03\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00"))     // cancel frame, id 9
	f.Add([]byte("CW\x02\x02\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x00\x00\x01")) // 16 MiB claimed, 1 byte sent
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc counts the whole process, so a breach has to
		// reproduce: a read that really is out of bounds is so every time,
		// what another goroutine allocated meanwhile is not.
		var fr frame
		var err error
		for try, limit := 0, uint64(MaxFramePayload+1<<16+4*len(data)); ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fr, err = readFrame(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			grew := after.TotalAlloc - before.TotalAlloc
			if grew <= limit {
				break
			}
			if try == 2 {
				t.Fatalf("reading %d bytes allocated %d, three times over", len(data), grew)
			}
		}
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
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatalf("re-encoding %+v: %v", fr, err)
		}
		back, err := readFrame(&buf)
		if err != nil || back.ftype != want.ftype || back.id != want.id || back.ttl != want.ttl ||
			back.traceID != want.traceID || back.parentID != want.parentID || !bytes.Equal(back.payload, want.payload) {
			t.Fatalf("frame %+v re-encoded and read as %+v, %v", want, back, err)
		}

		switch fr.ftype {
		case frameRequest:
			req, err := decodeRequest(fr.payload)
			if err != nil {
				return
			}
			again, err := decodeRequest(encodeRequest(req))
			if err != nil || again.Service != req.Service || again.Op != req.Op || !bytes.Equal(again.Body, req.Body) {
				t.Fatalf("request %+v re-encoded and decoded as %+v, %v", req, again, err)
			}
		case frameResponse:
			resp, err := decodeResponse(fr.payload)
			if err != nil {
				return
			}
			again, err := decodeResponse(encodeResponse(resp))
			if err != nil || again.Status != resp.Status || again.ErrMsg != resp.ErrMsg ||
				again.RetryAfter != resp.RetryAfter || !bytes.Equal(again.Body, resp.Body) {
				t.Fatalf("response %+v re-encoded and decoded as %+v, %v", resp, again, err)
			}
		}
	})
}
