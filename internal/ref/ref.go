// Package ref defines ServiceRef, the globally identifying service
// reference of the COSM infrastructure.
//
// In the paper (section 3.2), values of the SIDL base type
// SERVICEREFERENCE are first-class objects: they are registered at
// browsers together with a service's SID, returned from trader imports,
// and may travel as parameters or results of ordinary service
// operations, enabling cascades of bindings. A ServiceRef is therefore a
// small, comparable value type with a canonical textual form so that it
// can be embedded in wire messages, SIDs and user interfaces alike.
package ref

import (
	"errors"
	"fmt"
	"strings"
)

// ErrBadRef reports a malformed textual service reference.
var ErrBadRef = errors.New("ref: malformed service reference")

// ServiceRef globally identifies a service instance: the transport
// endpoint of the node hosting it and the service's name on that node.
// The zero value is the "nil reference"; IsZero reports it.
type ServiceRef struct {
	// Endpoint is the transport address of the hosting node, e.g.
	// "tcp:127.0.0.1:7001" or "loop:browser-1" for in-process transports.
	Endpoint string
	// Service is the name the service is registered under at the node.
	Service string
}

// New returns a reference to service name at endpoint.
func New(endpoint, service string) ServiceRef {
	return ServiceRef{Endpoint: endpoint, Service: service}
}

// Clone returns r with strings of its own: what a server keeps of a
// reference decoded as a window of a request (see wire.Handler).
func (r ServiceRef) Clone() ServiceRef {
	return ServiceRef{Endpoint: strings.Clone(r.Endpoint), Service: strings.Clone(r.Service)}
}

// IsZero reports whether r is the nil reference.
func (r ServiceRef) IsZero() bool { return r.Endpoint == "" && r.Service == "" }

// String returns the canonical textual form "cosm://<endpoint>/<service>".
func (r ServiceRef) String() string {
	return "cosm://" + r.Endpoint + "/" + r.Service
}

// Check reports whether Parse reads String's form of r back as r, the
// exact inverse of what Parse accepts: a non-empty endpoint and a
// non-empty service name without a '/'. The nil reference fails it too;
// a caller that allows nil tests IsZero first.
func (r ServiceRef) Check() error {
	if r.Endpoint == "" || r.Service == "" || strings.IndexByte(r.Service, '/') >= 0 {
		return fmt.Errorf("%w: endpoint %q, service %q has no textual form", ErrBadRef, r.Endpoint, r.Service)
	}
	return nil
}

// Parse parses the canonical textual form produced by String.
func Parse(s string) (ServiceRef, error) {
	const scheme = "cosm://"
	if !strings.HasPrefix(s, scheme) {
		return ServiceRef{}, fmt.Errorf("%w: missing %q prefix in %q", ErrBadRef, scheme, s)
	}
	rest := s[len(scheme):]
	i := strings.LastIndexByte(rest, '/')
	if i <= 0 || i == len(rest)-1 {
		return ServiceRef{}, fmt.Errorf("%w: want cosm://endpoint/service, got %q", ErrBadRef, s)
	}
	return ServiceRef{Endpoint: rest[:i], Service: rest[i+1:]}, nil
}
