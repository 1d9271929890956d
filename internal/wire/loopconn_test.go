package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// shrinkLoopQueue bounds each direction of the loop: connections dialed
// for the rest of the test at n bytes.
func shrinkLoopQueue(t *testing.T, n int32) {
	t.Helper()
	old := loopQueueMax.Swap(n)
	t.Cleanup(func() { loopQueueMax.Store(old) })
}

// loopPair returns both ends of a new loop: connection, closed when the
// test ends.
func loopPair(t *testing.T) (a, b *loopConn) {
	t.Helper()
	a, b = newLoopConns("pair")
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

// waiting reports whether w's operation waits and has not been woken.
func waiting(q *loopQueue, w *waiter) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return w.waiting
}

// outcome waits up to 5 s for an operation's error.
func outcome(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after 5 s", what)
		return nil
	}
}

// blockedRead starts a Read on c that has nothing to read, and returns
// once it waits.
func blockedRead(t *testing.T, c *loopConn) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 16))
		done <- err
	}()
	settle(t, "the read waits", func() bool { return waiting(c.in, &c.in.reader) })
	return done
}

// blockedWrite starts a Write on c larger than its queue's bound, and
// returns once it waits for room.
func blockedWrite(t *testing.T, c *loopConn) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(make([]byte, 2*c.out.max))
		done <- err
	}()
	settle(t, "the write waits", func() bool { return waiting(c.out, &c.out.writer) })
	return done
}

// A peer that accepts a loop: connection and never reads fills its
// queue; the client's write then waits, and its write stall — not the
// caller's shorter deadline, which would cut the frame in half — breaks
// the connection for every caller. TestWriteDeadlineUnwedgesStuckPeer
// is the same over net.Pipe.
func TestLoopWriteStallUnwedgesStuckPeer(t *testing.T) {
	shrinkLoopQueue(t, 4<<10)
	ln, err := listen("loop:stuck-reader")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
		close(accepted)
	}()
	raw, err := DialConnContext(context.Background(), ln.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	if them := <-accepted; them != nil {
		defer them.Close()
	}
	c := newClientConn(ln.Endpoint(), raw)
	defer c.Close()
	c.writeStall = 200 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, &Request{Service: "s", Op: "o", Body: make([]byte, 64<<10)})
		done <- err
	}()
	err = outcome(t, "Call against a stuck peer", done)
	if !errors.Is(err, ErrClientClosed) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("write against a stuck peer = %v, want the stalled write to break the connection", err)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("the write failed with %v, want it cut off by its stall", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if _, err := c.Call(ctx2, &Request{Service: "s", Op: "o"}); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second call on the broken connection = %v, want it to fail at once", err)
	}
}

// Close wakes a Read and a Write waiting on either end of the
// connection, whichever end is closed.
func TestLoopCloseWakesWaiters(t *testing.T) {
	shrinkLoopQueue(t, 64)
	for _, tc := range []struct {
		name        string
		closePeer   bool
		read, write error // what the woken operations return
	}{
		{"own end", false, net.ErrClosed, net.ErrClosed},
		{"peer end", true, io.EOF, io.ErrClosedPipe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := loopPair(t)
			closer := a
			if tc.closePeer {
				closer = b
			}
			reads, writes := blockedRead(t, a), blockedWrite(t, a)
			if err := closer.Close(); err != nil {
				t.Fatal(err)
			}
			if err := outcome(t, "Read", reads); !errors.Is(err, tc.read) {
				t.Errorf("woken Read = %v, want %v", err, tc.read)
			}
			if err := outcome(t, "Write", writes); !errors.Is(err, tc.write) {
				t.Errorf("woken Write = %v, want %v", err, tc.write)
			}
		})
	}
}

// A deadline moved earlier wakes a Read or a Write waiting under a
// later one, which then fails at the new deadline.
func TestLoopEarlierDeadlineWakesWaiter(t *testing.T) {
	shrinkLoopQueue(t, 64)
	a, b := loopPair(t)
	later := time.Now().Add(time.Hour)
	if err := a.SetDeadline(later); err != nil {
		t.Fatal(err)
	}
	reads, writes := blockedRead(t, a), blockedWrite(t, a)
	start := time.Now()
	if err := a.SetDeadline(start.Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for what, done := range map[string]<-chan error{"Read": reads, "Write": writes} {
		if err := outcome(t, what, done); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s under a deadline moved earlier = %v, want os.ErrDeadlineExceeded", what, err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("the operations took %v to see the earlier deadline", d)
	}
	// A deadline in the past fails the next operation at once.
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("Read past the deadline = %v", err)
	}
	if err := a.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, err := a.Read(make([]byte, 1)); n != 1 || err != nil {
		t.Errorf("Read with the deadline cleared = %d, %v", n, err)
	}
}

// What an end queued before it closed is read before io.EOF; writes
// after the close fail on both ends.
func TestLoopQueuedBytesBeforeEOF(t *testing.T) {
	a, b := loopPair(t)
	if _, err := a.Write([]byte("hello, ")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "hello, world" {
		t.Fatalf("read after the peer closed = %q, %v; want the queued bytes, then io.EOF", got, err)
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("Write on a closed end succeeded")
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Error("Write to a closed peer succeeded")
	}
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Read on a closed end = %v, want net.ErrClosed", err)
	}
}

// A reader of one large write gets its whole buffer every time until
// the write's last bytes, whatever the queue's bound: it returns short
// only when nothing more is coming, or when the queue is full.
func TestLoopLargeWriteReadInFullBuffers(t *testing.T) {
	for _, bound := range []int32{128 << 10, 1 << 10} {
		shrinkLoopQueue(t, bound)
		a, b := loopPair(t)
		msg := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
		written := make(chan error, 1)
		go func() {
			_, err := a.Write(msg)
			written <- err
		}()
		got := make([]byte, 0, len(msg))
		buf := make([]byte, 64<<10)
		for i := 0; len(got) < len(msg); i++ {
			p := buf
			if i == 0 {
				p = buf[:512] // a bufio fill, then the copies that follow it
			}
			n, err := b.Read(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(len(p), len(msg)-len(got), int(bound)); n != want {
				t.Fatalf("bound %d: read %d returned %d bytes, want %d", bound, i, n, want)
			}
			got = append(got, p[:n]...)
		}
		if err := <-written; err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("bound %d: write = %v, and the bytes read differ: %v", bound, err, !bytes.Equal(got, msg))
		}
	}
}

// Setting a write deadline, writing a frame-sized message, clearing the
// deadline and reading the message at the peer allocates nothing once
// warm: net.Pipe armed a timer for each deadline set.
func TestLoopDeadlineWriteReadAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are exact only without the race detector")
	}
	a, b := loopPair(t)
	msg := make([]byte, 300)
	buf := make([]byte, 512)
	round := func() {
		_ = a.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		_ = a.SetWriteDeadline(time.Time{})
		if n, err := b.Read(buf); n != len(msg) || err != nil {
			t.Fatalf("Read = %d, %v", n, err)
		}
	}
	round()
	if got := testing.AllocsPerRun(500, round); got != 0 {
		t.Fatalf("deadline, write, clear and peer read allocate %v, want 0", got)
	}
}
