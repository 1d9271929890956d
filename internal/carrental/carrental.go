// Package carrental implements the paper's running example — the remote
// car rental server of sections 1, 2.1, 3.1 and 4.1 — as a complete
// COSM service: the SIDL description (sidl.CarRentalIDL), a stateful
// implementation honouring the FSM protocol, and helpers to publish the
// service at browsers and traders.
package carrental

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cosm/internal/browser"
	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
)

// ErrNoSelection reports a Commit for a session that never selected a
// car. With server-side FSM enforcement active this cannot happen; the
// check is the application-level belt to the protocol's braces.
var ErrNoSelection = errors.New("carrental: no car selected in this session")

// Tariff is the per-model daily charge table of one rental company.
type Tariff map[string]float64

// DefaultTariff prices the three models of the paper's example.
func DefaultTariff() Tariff {
	return Tariff{"AUDI": 120, "FIAT_Uno": 80, "VW_Golf": 95}
}

// Service is the car rental business logic: per-session selections plus
// a booking counter.
type Service struct {
	sid    *sidl.SID
	tariff Tariff

	mu         sync.Mutex
	selections map[string]selection
	bookings   int
}

type selection struct {
	model  string
	days   int64
	charge float64
}

// Option configures a Service.
type Option func(*Service)

// WithTariff overrides the default tariff.
func WithTariff(t Tariff) Option {
	return func(s *Service) { s.tariff = t }
}

// New builds the car rental service and returns both the COSM service
// (to host on a node) and the business object (to inspect in tests).
func New(opts ...Option) (*cosm.Service, *Service, error) {
	sid := sidl.CarRentalSID()
	impl := &Service{
		sid:        sid,
		tariff:     DefaultTariff(),
		selections: map[string]selection{},
	}
	for _, o := range opts {
		o(impl)
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		return nil, nil, err
	}
	svc.MustHandle("SelectCar", impl.selectCar)
	svc.MustHandle("Commit", impl.commit)
	return svc, impl, nil
}

// SID returns the service description.
func (s *Service) SID() *sidl.SID { return s.sid }

// Bookings returns the number of committed bookings.
func (s *Service) Bookings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bookings
}

// The Go shapes of SelectCar_t, SelectCarReturn_t and BookCarReturn_t
// (sidl.CarRentalIDL); the enums bind as their literals.
type selectCarArgs struct {
	Model       string
	BookingDate string
	Days        int64
}

type selectCarReturn struct {
	Available bool
	Charge    float64
	Currency  string
}

type bookCarReturn struct {
	OK           bool
	Confirmation string
}

func (s *Service) selectCar(call *cosm.Call) error {
	var sel selectCarArgs
	if err := call.Args(&sel); err != nil {
		return err
	}
	if sel.Days <= 0 {
		return fmt.Errorf("carrental: days must be positive, got %d", sel.Days)
	}
	perDay, available := s.tariff[sel.Model]
	out := selectCarReturn{Available: available, Currency: "USD"}
	if available {
		out.Charge = perDay * float64(sel.Days)
		s.mu.Lock()
		s.selections[call.Session] = selection{model: sel.Model, days: sel.Days, charge: out.Charge}
		s.mu.Unlock()
	}
	return call.Return(out)
}

func (s *Service) commit(call *cosm.Call) error {
	s.mu.Lock()
	sel, ok := s.selections[call.Session]
	if ok {
		delete(s.selections, call.Session)
		s.bookings++
	}
	n := s.bookings
	s.mu.Unlock()
	if !ok {
		return ErrNoSelection
	}
	return call.Return(bookCarReturn{OK: true, Confirmation: fmt.Sprintf("RES-%04d-%s-%dd", n, sel.model, sel.days)})
}

// Publication records where a service was published, so it can be
// withdrawn symmetrically when the provider shuts down.
type Publication struct {
	// Name is the SID service name registered at the browser ("" when no
	// browser was involved).
	Name string
	// OfferID is the trader offer id ("" when no trader was involved).
	OfferID string

	bc *browser.Client
	tc *trader.Client
}

// Publish registers the hosted service at a browser (mediation path)
// and, when a trader client is given, also exports it as a typed offer
// (trading path) — the integrated COSM publication of section 4.1. The
// returned Publication lets the provider deregister on shutdown.
func Publish(ctx context.Context, sid *sidl.SID, r ref.ServiceRef, bc *browser.Client, tc *trader.Client) (*Publication, error) {
	pub := &Publication{bc: bc, tc: tc}
	if bc != nil {
		if err := bc.RegisterSID(ctx, sid, r); err != nil {
			return nil, fmt.Errorf("carrental: browser registration: %w", err)
		}
		pub.Name = sid.ServiceName
	}
	if tc != nil {
		id, err := tc.ExportSID(ctx, sid, r)
		if err != nil {
			return nil, fmt.Errorf("carrental: trader export: %w", err)
		}
		pub.OfferID = id
	}
	return pub, nil
}

// Unpublish withdraws the publication: the trader offer first (so
// importers stop being routed here), then the browser entry. Errors are
// joined, not short-circuited — a dead trader must not leave the
// browser entry stale too.
func (p *Publication) Unpublish(ctx context.Context) error {
	var errs []error
	if p.tc != nil && p.OfferID != "" {
		if err := p.tc.Withdraw(ctx, p.OfferID); err != nil {
			errs = append(errs, fmt.Errorf("carrental: trader withdraw: %w", err))
		}
	}
	if p.bc != nil && p.Name != "" {
		if err := p.bc.Withdraw(ctx, p.Name); err != nil {
			errs = append(errs, fmt.Errorf("carrental: browser withdraw: %w", err))
		}
	}
	return errors.Join(errs...)
}
