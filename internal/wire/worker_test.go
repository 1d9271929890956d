package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"cosm/internal/obs"
)

// shrinkIdle caps the worker set at n for the rest of the test,
// retiring the parked workers past it: each takes a no-op job and, the
// set being over its cap when it finishes, exits. The old cap comes
// back when the test ends.
func shrinkIdle(t *testing.T, n int32) {
	t.Helper()
	old := maxIdle.Swap(n)
	t.Cleanup(func() { maxIdle.Store(old) })
	settle(t, "the parked workers past the cap retire", func() bool {
		handOff(func() {})
		return parked.Load() <= n
	})
}

// parkedWorkers counts the goroutines blocked in the worker set's
// receive, read from a dump of every goroutine's stack.
func parkedWorkers() int32 {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var count int32
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		// A parked worker's first frame outside the runtime is park.
		for _, line := range bytes.Split(g, []byte("\n")) {
			if bytes.HasPrefix(line, []byte("goroutine ")) || bytes.HasPrefix(line, []byte("\t")) ||
				bytes.HasPrefix(line, []byte("runtime.")) {
				continue
			}
			if bytes.HasPrefix(line, []byte("cosm/internal/wire.park(")) && bytes.Contains(g, []byte("[chan receive")) {
				count++
			}
			break
		}
	}
	return count
}

// settle waits until cond holds, failing the test after 5 s.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("still not settled after 5 s: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Sequential calls to a handler whose frames outgrow a goroutine's
// starting stack run on the same few workers: one goroutine each would
// grow a fresh stack per call.
func TestSequentialCallsReuseWorkers(t *testing.T) {
	_, bound := startServer(t, "loop:reuse", map[string]Handler{"svc": deepHandler()})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := spawned.Load()
	for i := 0; i < 1000; i++ {
		if _, err := c.Call(context.Background(), &Request{Service: "svc", Op: "Deep"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := spawned.Load() - before; n > 8 {
		t.Fatalf("1000 sequential calls started %d goroutines, want a handful", n)
	}
}

// A burst of handlers past the cap leaves no more than the cap parked:
// the workers that finish past it exit.
func TestBurstLeavesAtMostCapParked(t *testing.T) {
	const idleCap = 4
	shrinkIdle(t, idleCap)
	release := make(chan struct{})
	var running sync.WaitGroup
	h := HandlerFunc(func(context.Context, string, *Request) *Response {
		running.Done()
		<-release
		return &Response{Status: StatusOK}
	})
	_, bound := startServer(t, "loop:burst", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	base, spawnedBefore := runtime.NumGoroutine(), spawned.Load()
	const burst = 4 * idleCap
	running.Add(burst)
	var calls sync.WaitGroup
	for range burst {
		calls.Add(1)
		go func() {
			defer calls.Done()
			if _, err := c.Call(context.Background(), &Request{Service: "svc", Op: "Block"}); err != nil {
				t.Error(err)
			}
		}()
	}
	running.Wait()
	if n := spawned.Load() - spawnedBefore; n < burst-idleCap {
		t.Fatalf("a burst of %d handlers started %d goroutines, want at least %d", burst, n, burst-idleCap)
	}
	close(release)
	calls.Wait()
	settle(t, "workers past the cap exit", func() bool { return runtime.NumGoroutine() <= base+idleCap })
	settle(t, "the parked count is the parked goroutines", func() bool { return parked.Load() == parkedWorkers() })
	if p := parked.Load(); p > idleCap {
		t.Fatalf("%d workers parked, want at most %d", p, idleCap)
	}
}

// jobHolding returns a job that captures a fresh object, and a weak
// pointer to that object.
func jobHolding(done chan<- struct{}) (func(), weak.Pointer[[64]byte]) {
	obj := new([64]byte)
	return func() { obj[0]++; done <- struct{}{} }, weak.Make(obj)
}

// A parked worker keeps nothing of its last job alive, whether the job
// started it or was handed to it.
func TestParkedWorkerHoldsNoJob(t *testing.T) {
	shrinkIdle(t, 0)
	maxIdle.Store(1)
	for _, path := range []string{"a new worker", "a parked worker"} {
		done := make(chan struct{})
		job, wp := jobHolding(done)
		Go(job)
		job = nil
		<-done
		settle(t, path+" parks", func() bool { return parkedWorkers() == 1 })
		for i := 0; wp.Value() != nil; i++ {
			if i == 100 {
				t.Fatalf("%s, parked, keeps its last job's capture alive", path)
			}
			runtime.GC()
		}
	}
}

// A handler that panics, or one that calls runtime.Goexit, gets its
// caller a StatusAppError reply and one panic log line, leaves the set
// counting exactly the workers parked, and the next call is served. A
// server with a logger once dereferenced the nil response a Goexit
// leaves and died; one without answered the call never.
func TestHandlerPanicAndGoexitLeaveSetConsistent(t *testing.T) {
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("logger=%v", logged), func(t *testing.T) {
			shrinkIdle(t, 2)
			h := HandlerFunc(func(_ context.Context, _ string, req *Request) *Response {
				switch req.Op {
				case "Panic":
					panic("boom")
				case "Goexit":
					runtime.Goexit()
				}
				return &Response{Status: StatusOK, Body: []byte("ok")}
			})
			var log syncBuffer
			s := quietServer()
			if logged {
				s = NewServer(WithServerLogger(obs.NewLogger(&log, "wiretest")))
			}
			defer s.Close()
			if err := s.Register("svc", h); err != nil {
				t.Fatal(err)
			}
			bound, err := s.ListenAndServe("loop:goexit-" + t.Name())
			if err != nil {
				t.Fatal(err)
			}
			c, err := Dial(bound)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// The deadline only turns a reply that never comes into a failure.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			ops := []string{"Panic", "Goexit", "Panic", "Goexit"}
			for _, op := range ops {
				_, err := c.Call(ctx, &Request{Service: "svc", Op: op})
				var re *RemoteError
				if !errors.As(err, &re) || re.Status != StatusAppError {
					t.Fatalf("%s: err = %v, want StatusAppError", op, err)
				}
				settle(t, "after "+op+", the parked count is the parked goroutines", func() bool {
					return parked.Load() == parkedWorkers()
				})
				for range 3 {
					if got, err := c.Call(context.Background(), &Request{Service: "svc", Op: "Echo"}); err != nil || got != "ok" {
						t.Fatalf("call after %s = %q, %v", op, got, err)
					}
				}
			}
			if logged {
				if got := strings.Count(log.String(), "event=panic"); got != len(ops) {
					t.Fatalf("%d panic lines for %d handler panics and Goexits:\n%s", got, len(ops), log.String())
				}
			}
		})
	}
}
