// Package browser implements the browser mediation of the paper
// (section 3.2, Fig. 4): the COSM mechanism that makes *innovative*
// services — services with no standardised service type yet — reachable.
//
// Application services register their full Service Interface Description
// together with their globally identifying service reference at a
// well-known Browser component (step 1). Clients browse the directory,
// inspect descriptions (step 2), and obtain the reference for a direct
// binding (step 3). A browser is itself a COSM service with its own SID,
// so one browser can register at another: browsing cascades, and a
// cascade of bindings with individually generated user interfaces can
// evolve (end of section 3.2).
package browser

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"cosm/internal/journal"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// ServiceName is the well-known hosted name of a browser service.
const ServiceName = "cosm.browser"

// Errors reported by the directory.
var (
	ErrNotRegistered = errors.New("browser: service not registered")
	ErrBadSID        = errors.New("browser: invalid SID")
)

// Entry is one registered service: its description and its reference.
type Entry struct {
	// Name is the SID's service name (the registration key).
	Name string
	// SID is the registered description.
	SID *sidl.SID
	// Ref is the service reference for direct binding.
	Ref ref.ServiceRef
}

// Directory is the browser's in-memory store. Registration is an
// upsert: a provider re-registering (e.g. after moving endpoints)
// replaces its entry. Safe for concurrent use.
type Directory struct {
	mu      sync.RWMutex
	entries map[string]*dirEntry

	// journal, when attached via SetJournal, receives a logical record
	// for every registration and withdrawal and orders each with its
	// apply (see durable.go).
	journal *journal.Journal

	log     *obs.Logger
	metrics dirMetrics
}

type dirEntry struct {
	entry    Entry
	keywords []string
}

// dirMetrics binds the cosm_browser_* metric families; the zero value
// (no registry) records nothing.
type dirMetrics struct {
	registrations *obs.Counter
	withdrawals   *obs.Counter
	fetches       *obs.Counter
	searches      *obs.Counter
}

// DirectoryOption configures a Directory.
type DirectoryOption func(*Directory)

// WithDirectoryLogger routes registration and withdrawal events through
// the structured logger l. A nil l disables logging.
func WithDirectoryLogger(l *obs.Logger) DirectoryOption {
	return func(d *Directory) { d.log = l }
}

// WithDirectoryMetrics records registrations, withdrawals, SID fetches
// and searches — plus the live registration count — into reg's
// cosm_browser_* families. A nil reg disables recording.
func WithDirectoryMetrics(reg *obs.Registry) DirectoryOption {
	return func(d *Directory) {
		d.metrics = dirMetrics{
			registrations: reg.Counter("cosm_browser_registrations_total", "SID registrations (upserts included)."),
			withdrawals:   reg.Counter("cosm_browser_withdrawals_total", "Registrations withdrawn."),
			fetches:       reg.Counter("cosm_browser_fetches_total", "SID/reference fetches by name."),
			searches:      reg.Counter("cosm_browser_searches_total", "Keyword searches."),
		}
		reg.GaugeFunc("cosm_browser_entries", "Registered services.",
			func() float64 { return float64(d.Len()) })
	}
}

// NewDirectory returns an empty directory.
func NewDirectory(opts ...DirectoryOption) *Directory {
	d := &Directory{entries: map[string]*dirEntry{}}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Register records a SID and its reference under the SID's service name
// (step 1 of Fig. 4). The SID must validate; no service type is needed —
// that is the point of mediation. The reference must survive its
// textual form (ref.ServiceRef.Check), the form the journal and every
// listing carry it in.
func (d *Directory) Register(sid *sidl.SID, r ref.ServiceRef) error {
	if sid == nil {
		return fmt.Errorf("%w: nil", ErrBadSID)
	}
	if err := sid.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSID, err)
	}
	if err := r.Check(); err != nil {
		return fmt.Errorf("browser: register %s: %w", sid.ServiceName, err)
	}
	// WAL-first, after validation: the log carries no rejected
	// registrations, and a crash after the append replays the upsert.
	if _, err := d.journal.Commit(func(dst []byte) ([]byte, error) {
		text, err := sid.MarshalText()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSID, err)
		}
		return appendRecord(dst, &dirRecord{Op: opRegister, Name: sid.ServiceName, SIDL: string(text), Ref: r.String()})
	}, func() error {
		d.put(sid, r)
		return nil
	}); err != nil {
		return err
	}
	d.metrics.registrations.Inc()
	d.log.Log(nil, "register", "service", sid.ServiceName, "ref", r.String())
	return nil
}

// Withdraw removes a registration. Of concurrent withdrawals of one
// name exactly one succeeds, and only a registered name's withdrawal is
// journalled: with a journal the check, the append and the removal are
// one write-ahead step, so the check before the append holds; without
// one the removal checks again under the directory's lock.
func (d *Directory) Withdraw(name string) error {
	if _, err := d.journal.Commit(func(dst []byte) ([]byte, error) {
		d.mu.RLock()
		_, ok := d.entries[name]
		d.mu.RUnlock()
		if !ok {
			return nil, notRegistered(name)
		}
		return appendRecord(dst, &dirRecord{Op: opWithdraw, Name: name})
	}, func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		if _, ok := d.entries[name]; !ok {
			return notRegistered(name)
		}
		delete(d.entries, name)
		return nil
	}); err != nil {
		return err
	}
	d.metrics.withdrawals.Inc()
	d.log.Log(nil, "withdraw", "service", name)
	return nil
}

// Get returns the entry for a service name.
func (d *Directory) Get(name string) (Entry, error) {
	d.metrics.fetches.Inc()
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[name]
	if !ok {
		return Entry{}, notRegistered(name)
	}
	return e.entry, nil
}

func notRegistered(name string) error { return fmt.Errorf("%w: %q", ErrNotRegistered, name) }

// Names returns all registered service names, sorted.
func (d *Directory) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.entries))
	for n := range d.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registrations.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Search returns entries whose keyword set (service name, operation
// names, type names, annotation words) contains a word with the given
// substring, case-insensitively, sorted by name. This is the human
// user's entry point into the open service market: no service type, just
// text.
func (d *Directory) Search(keyword string) []Entry {
	d.metrics.searches.Inc()
	needle := strings.ToLower(strings.TrimSpace(keyword))
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []Entry
	for _, e := range d.entries {
		if needle == "" || matchKeyword(e.keywords, needle) {
			out = append(out, e.entry)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func matchKeyword(keywords []string, needle string) bool {
	for _, k := range keywords {
		if strings.Contains(k, needle) {
			return true
		}
	}
	return false
}
