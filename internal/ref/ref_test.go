package ref

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		r    ServiceRef
	}{
		{"tcp", New("tcp:127.0.0.1:7001", "CarRentalService")},
		{"loop", New("loop:browser-1", "cosm.browser")},
		{"nested-colons", New("tcp:[::1]:80", "svc")},
		{"endpoint-with-slash-like-service", New("host:1", "a.b.c")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Parse(tt.r.String())
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.r.String(), err)
			}
			if got != tt.r {
				t.Fatalf("round trip: got %+v, want %+v", got, tt.r)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []string{
		"",
		"cosm://",
		"cosm://onlyendpoint",
		"cosm:///service",
		"cosm://host:1/",
		"http://host/service",
		"cosm:/host/service",
	}
	for _, s := range tests {
		t.Run(s, func(t *testing.T) {
			if _, err := Parse(s); !errors.Is(err, ErrBadRef) {
				t.Fatalf("Parse(%q) err = %v, want ErrBadRef", s, err)
			}
		})
	}
}

// TestCheckIsParseInverse: Check accepts exactly the refs whose textual
// form Parse reads back unchanged.
func TestCheckIsParseInverse(t *testing.T) {
	for _, r := range []ServiceRef{
		{}, {Endpoint: "tcp:10.0.0.1:7000"}, {Service: "svc"}, {Endpoint: "tcp:10.0.0.1:7000", Service: "a/b"},
		{Endpoint: "tcp:10.0.0.1:7000", Service: "/"}, New("tcp:10.0.0.1:7000", "svc"), New("unix:/run/cosm.sock", "svc"),
	} {
		back, err := Parse(r.String())
		roundTrips := err == nil && back == r
		if err := r.Check(); (err == nil) != roundTrips || err != nil && !errors.Is(err, ErrBadRef) {
			t.Errorf("%+v: Check = %v, but the round trip gives %+v", r, err, back)
		}
	}
	f := func(endpoint, service string) bool {
		r := New(endpoint, service)
		back, err := Parse(r.String())
		return (r.Check() == nil) == (err == nil && back == r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsZero(t *testing.T) {
	var z ServiceRef
	if !z.IsZero() {
		t.Fatal("zero value should be zero reference")
	}
	if New("e", "s").IsZero() {
		t.Fatal("non-empty ref should not be zero")
	}
}

// Property: any ref with non-empty fields and no '/' in the service name
// round-trips through the textual form.
func TestRoundTripProperty(t *testing.T) {
	f := func(endpoint, service string) bool {
		for _, c := range service {
			if c == '/' {
				return true // skip: service names never contain '/'
			}
		}
		if endpoint == "" || service == "" {
			return true
		}
		r := New(endpoint, service)
		got, err := Parse(r.String())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
