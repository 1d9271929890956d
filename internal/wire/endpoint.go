// Package wire implements the communication level of the COSM prototype
// architecture (Fig. 6): a framed, correlated request/response RPC
// protocol over stream transports, plus broadcast groups.
//
// The paper's prototype used Sun RPC on a SPARC/AIX workstation cluster;
// this implementation substitutes a self-contained equivalent with the
// same call semantics — synchronous request/response with at-most-once
// execution per request — over two interchangeable transports: TCP
// ("tcp:host:port" endpoints) and an in-process loopback network
// ("loop:name" endpoints) that removes the kernel from micro-benchmarks
// and makes multi-node tests hermetic. A loop: connection is a pair of
// bounded in-process byte queues, one per direction, whose deadlines
// cost nothing to set (loopconn.go).
package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
)

// Errors reported by endpoint handling.
var (
	ErrBadEndpoint = errors.New("wire: malformed endpoint")
	ErrLoopInUse   = errors.New("wire: loopback name already in use")
	ErrLoopUnknown = errors.New("wire: no such loopback listener")
)

// listener accepts transport connections for a server.
type listener interface {
	Accept() (net.Conn, error)
	Close() error
	// Endpoint returns the dialable endpoint of this listener.
	Endpoint() string
}

// listen creates a listener for an endpoint:
//
//	"tcp:host:port" — a TCP listener (use "tcp:127.0.0.1:0" for an
//	                  ephemeral port; Endpoint reports the bound one);
//	"loop:name"     — an in-process loopback listener.
func listen(endpoint string) (listener, error) {
	scheme, rest, err := splitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	switch scheme {
	case "tcp":
		ln, err := net.Listen("tcp", rest)
		if err != nil {
			return nil, fmt.Errorf("wire: listen %s: %w", endpoint, err)
		}
		return &tcpListener{Listener: ln}, nil
	case "loop":
		return defaultLoopNet.listen(rest)
	default:
		return nil, fmt.Errorf("%w: unknown scheme %q", ErrBadEndpoint, scheme)
	}
}

// DialConnContext opens a raw transport connection to an endpoint,
// honouring ctx cancellation and deadline while connecting: a dial to a
// black-holed address gives up when ctx does instead of hanging for the
// OS TCP timeout.
func DialConnContext(ctx context.Context, endpoint string) (net.Conn, error) {
	scheme, rest, err := splitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	switch scheme {
	case "tcp":
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", rest)
		if err != nil {
			return nil, fmt.Errorf("wire: dial %s: %w", endpoint, err)
		}
		return c, nil
	case "loop":
		return defaultLoopNet.dial(ctx, rest)
	default:
		return nil, fmt.Errorf("%w: unknown scheme %q", ErrBadEndpoint, scheme)
	}
}

func splitEndpoint(endpoint string) (scheme, rest string, err error) {
	i := strings.IndexByte(endpoint, ':')
	if i <= 0 || i == len(endpoint)-1 {
		return "", "", fmt.Errorf("%w: %q", ErrBadEndpoint, endpoint)
	}
	return endpoint[:i], endpoint[i+1:], nil
}

type tcpListener struct {
	net.Listener
}

func (l *tcpListener) Endpoint() string { return "tcp:" + l.Addr().String() }

// loopNet is an in-process transport namespace: named listeners whose
// connections are pairs of bounded byte queues (loopconn.go).
type loopNet struct {
	mu        sync.Mutex
	listeners map[string]*loopListener
}

var defaultLoopNet = &loopNet{listeners: map[string]*loopListener{}}

func (n *loopNet) listen(name string) (*loopListener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("%w: empty loopback name", ErrBadEndpoint)
	}
	if _, exists := n.listeners[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrLoopInUse, name)
	}
	l := &loopListener{
		net:     n,
		name:    name,
		backlog: make(chan net.Conn, 16),
		closed:  make(chan struct{}),
	}
	n.listeners[name] = l
	return l, nil
}

func (n *loopNet) dial(ctx context.Context, name string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[name]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrLoopUnknown, name)
	}
	client, server := newLoopConns(name)
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.closed:
		_ = client.Close()
		_ = server.Close()
		return nil, fmt.Errorf("%w: %q", ErrLoopUnknown, name)
	case <-ctx.Done():
		_ = client.Close()
		_ = server.Close()
		return nil, fmt.Errorf("wire: dial loop:%s: %w", name, ctx.Err())
	}
}

type loopListener struct {
	net     *loopNet
	name    string
	backlog chan net.Conn
	closed  chan struct{}

	closeOnce sync.Once
}

func (l *loopListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *loopListener) Close() error {
	l.closeOnce.Do(func() {
		l.net.mu.Lock()
		delete(l.net.listeners, l.name)
		l.net.mu.Unlock()
		close(l.closed)
	})
	return nil
}

func (l *loopListener) Endpoint() string { return "loop:" + l.name }
