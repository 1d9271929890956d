package wire

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// A loop: connection is two bounded byte queues, one per direction. A
// Write copies into the peer's queue and returns as soon as its bytes
// are queued; only a full queue makes it wait. A Read takes what is
// queued, or waits for it. Setting a deadline stores a time: a timer is
// armed only by an operation that has to wait, and a deadline change
// wakes an operation that waits, which then looks at the new one.
//
// Reads of a large write come in large chunks under any schedule: a
// Read returns before it can fill its buffer only when nothing more is
// coming — no Write is under way, or the queue is full. A reader with
// a buffer of len(p) ≤ the bound, reading one large write, gets exactly
// len(p) bytes each time until the write's last bytes, as it would
// from the unbuffered net.Pipe.
//
// A queue holds storage only while it holds bytes, so an idle
// connection keeps no buffer: the storage is a frame buffer
// (BorrowBuf), handed back when the reader drains the queue and no
// Write waits to add more.

// loopQueueMax bounds the bytes one direction of a loop: connection
// holds; tests shrink it.
var loopQueueMax atomic.Int32

func init() { loopQueueMax.Store(128 << 10) }

// newLoopConns returns the two ends of a new loop: connection.
func newLoopConns(name string) (client, server *loopConn) {
	var addr net.Addr = loopAddr("loop:" + name)
	up, down := newLoopQueue(), newLoopQueue()
	return &loopConn{in: down, out: up, addr: addr}, &loopConn{in: up, out: down, addr: addr}
}

// loopConn is one end of a loop: connection. Reads are serialized
// among themselves, because a queue has one place for a reader to wait,
// and so are writes, so that each Write reaches the peer whole.
type loopConn struct {
	in, out    *loopQueue
	rdMu, wrMu sync.Mutex
	addr       net.Addr
}

// loopQueue is the bytes one end wrote and the other has yet to read.
// Everything in it is guarded by mu.
type loopQueue struct {
	mu  sync.Mutex
	max int
	// buf holds the queued bytes from (*buf)[r:], nil while none are.
	buf *[]byte
	r   int
	// pending counts the bytes of a Write under way that are not queued
	// yet.
	pending int
	// rclosed: the reading end closed, so writes fail and what is
	// queued is dropped. wclosed: the writing end closed, so the
	// reader gets what is queued and then io.EOF.
	rclosed, wclosed bool
	reader, writer   waiter
}

func newLoopQueue() *loopQueue {
	return &loopQueue{
		max:    int(loopQueueMax.Load()),
		reader: waiter{wake: make(chan struct{}, 1)},
		writer: waiter{wake: make(chan struct{}, 1)},
	}
}

// waiter is one side of a queue: its deadline and how to wake it. Only
// the one operation that holds its end's rdMu or wrMu waits on it.
type waiter struct {
	deadline time.Time
	waiting  bool
	// wake holds one token: a wake that comes before the wait is not
	// lost, and a stale one only makes the next wait look again.
	wake  chan struct{}
	timer *time.Timer // armed by a wait under a deadline, kept for the next
}

// expired reports whether w's deadline has passed.
func (w *waiter) expired() bool {
	return !w.deadline.IsZero() && !time.Now().Before(w.deadline)
}

// signal wakes w if it waits, once. Called with the queue's mu held.
func (w *waiter) signal() {
	if w.waiting {
		w.waiting = false
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// wait releases q.mu until w is woken or its deadline passes, then
// takes it again; the caller looks at the queue and the deadline anew.
func (q *loopQueue) wait(w *waiter) {
	var expiry <-chan time.Time
	if !w.deadline.IsZero() {
		d := time.Until(w.deadline)
		if w.timer == nil {
			w.timer = time.NewTimer(d)
		} else {
			w.timer.Reset(d)
		}
		expiry = w.timer.C
	}
	w.waiting = true
	q.mu.Unlock()
	select {
	case <-w.wake:
	case <-expiry:
	}
	q.mu.Lock()
	w.waiting = false
	if expiry != nil {
		w.timer.Stop()
	}
}

func (q *loopQueue) queued() int {
	if q.buf == nil {
		return 0
	}
	return len(*q.buf) - q.r
}

// push queues p, which fits under the bound.
func (q *loopQueue) push(p []byte) {
	if q.buf == nil {
		q.buf = BorrowBuf()
	}
	b := *q.buf
	if q.r > 0 && len(b)+len(p) > cap(b) {
		b = b[:copy(b, b[q.r:])]
		q.r = 0
	}
	*q.buf = append(b, p...)
}

// take moves queued bytes into p, and hands the storage back once the
// queue is empty and no Write waits to refill it.
func (q *loopQueue) take(p []byte) int {
	b := *q.buf
	n := copy(p, b[q.r:])
	q.r += n
	if q.r == len(b) {
		q.r = 0
		*q.buf = b[:0]
		if q.pending == 0 {
			q.drop()
		}
	}
	return n
}

// drop hands back the queue's storage and what it still holds.
func (q *loopQueue) drop() {
	ReleaseBuf(q.buf)
	q.buf, q.r = nil, 0
}

func (c *loopConn) Read(p []byte) (int, error) {
	c.rdMu.Lock()
	defer c.rdMu.Unlock()
	q := c.in
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.rclosed {
			return 0, net.ErrClosed
		}
		if q.reader.expired() {
			return 0, os.ErrDeadlineExceeded
		}
		if len(p) == 0 {
			return 0, nil
		}
		if n := q.queued(); n > 0 && (n >= len(p) || n >= q.max || q.pending == 0 || q.wclosed) {
			n = q.take(p)
			q.writer.signal()
			return n, nil
		} else if n == 0 && q.wclosed {
			return 0, io.EOF
		}
		q.wait(&q.reader)
	}
}

func (c *loopConn) Write(p []byte) (int, error) {
	c.wrMu.Lock()
	defer c.wrMu.Unlock()
	q := c.out
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	defer func() {
		// However a Write ends, nothing more of it is coming: a reader
		// waiting for the rest takes what is queued.
		if q.pending != 0 {
			q.pending = 0
			q.reader.signal()
		}
	}()
	for {
		switch {
		case q.wclosed:
			return n, net.ErrClosed
		case q.rclosed:
			return n, io.ErrClosedPipe
		case q.writer.expired():
			return n, os.ErrDeadlineExceeded
		}
		if k := min(len(p)-n, q.max-q.queued()); k > 0 {
			q.push(p[n : n+k])
			n += k
			q.pending = len(p) - n
			q.reader.signal()
		}
		if n == len(p) {
			return n, nil
		}
		q.wait(&q.writer)
	}
}

// Close ends both directions of this end and wakes every operation
// waiting on either end: the peer reads what this end queued and then
// io.EOF, and its writes fail. Closing again does nothing more.
func (c *loopConn) Close() error {
	q := c.in
	q.mu.Lock()
	q.rclosed = true
	if q.buf != nil {
		q.drop()
	}
	q.reader.signal()
	q.writer.signal()
	q.mu.Unlock()

	q = c.out
	q.mu.Lock()
	q.wclosed = true
	q.reader.signal()
	q.writer.signal()
	q.mu.Unlock()
	return nil
}

func (c *loopConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

func (c *loopConn) SetReadDeadline(t time.Time) error {
	q := c.in
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rclosed {
		return net.ErrClosed
	}
	q.reader.deadline = t
	q.reader.signal()
	return nil
}

func (c *loopConn) SetWriteDeadline(t time.Time) error {
	q := c.out
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.wclosed {
		return net.ErrClosed
	}
	q.writer.deadline = t
	q.writer.signal()
	return nil
}

func (c *loopConn) LocalAddr() net.Addr  { return c.addr }
func (c *loopConn) RemoteAddr() net.Addr { return c.addr }

// loopAddr is the address of both ends of a loop: connection: the
// endpoint it was dialed on.
type loopAddr string

func (a loopAddr) Network() string { return "loop" }
func (a loopAddr) String() string  { return string(a) }
