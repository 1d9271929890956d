package wire

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// deep recurses n frames of 1 KiB each, so a goroutine that calls it
// with n = 16 needs more than its starting 8 KiB of stack.
//
//go:noinline
func deep(n int) int {
	var pad [1 << 10]byte
	pad[n] = byte(n)
	if n > 0 {
		return deep(n-1) + int(pad[n])
	}
	return int(pad[0])
}

// deepHandler answers every call from deep(16): its frames need more
// than 8 KiB, as a trader's import does.
func deepHandler() Handler {
	return HandlerFunc(func(context.Context, string, *Request) *Response {
		return &Response{Status: StatusOK, Body: []byte{byte(deep(16))}}
	})
}

// BenchmarkCallStack is a call to a handler whose frames need more than
// 8 KiB of stack, from 1 and from 8 concurrent callers sharing one
// client, over loop: and tcp:. A goroutine that runs the handler
// starts with 8 KiB and grows by copying, so this prices whether each
// call pays that growth again.
func BenchmarkCallStack(b *testing.B) {
	for _, endpoint := range []string{"loop:callstack", "tcp:127.0.0.1:0"} {
		for _, callers := range []int{1, 8} {
			transport, _, _ := strings.Cut(endpoint, ":")
			b.Run(fmt.Sprintf("%s/callers=%d", transport, callers), func(b *testing.B) {
				s := NewServer(WithServerLog(func(string, ...any) {}))
				defer s.Close()
				if err := s.Register("svc", deepHandler()); err != nil {
					b.Fatal(err)
				}
				bound, err := s.ListenAndServe(endpoint)
				if err != nil {
					b.Fatal(err)
				}
				c, err := Dial(bound)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				ctx := context.Background()
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for range callers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							if _, err := c.Call(ctx, &Request{Service: "svc", Op: "Deep"}); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
