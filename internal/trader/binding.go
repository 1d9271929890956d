package trader

import (
	"context"
	"errors"
	"fmt"

	"cosm/internal/cosm"
	"cosm/internal/wire"
)

// ErrNoLiveOffer reports that every matched offer's provider was dead.
var ErrNoLiveOffer = errors.New("trader: no live offer")

// Importer is the import surface shared by an in-process *Trader and a
// remote *Client, so the failover binding path below works against
// either.
type Importer interface {
	Import(ctx context.Context, req ImportRequest) ([]*Offer, error)
}

// BindFirstLive walks offers in order and binds the first one whose
// provider answers, returning the binding and the offer it came from.
// Offers whose providers are unreachable (connection-class failures,
// open breaker) or stale (the node answers but no longer hosts the
// service) are skipped; any other application-level refusal (ErrRemote)
// aborts immediately, since the provider is alive and retrying a
// different one would mask a real error. If every provider is dead the
// error wraps ErrNoLiveOffer and the per-offer failures.
func BindFirstLive(ctx context.Context, pool *wire.Pool, offers []*Offer) (*cosm.Conn, *Offer, error) {
	if len(offers) == 0 {
		return nil, nil, ErrNoLiveOffer
	}
	var failures []error
	for _, o := range offers {
		conn, err := cosm.Bind(ctx, pool, o.Ref)
		if err == nil {
			return conn, o, nil
		}
		if ctx.Err() != nil {
			return nil, nil, err
		}
		var re *wire.RemoteError
		if errors.As(err, &re) && re.Status != wire.StatusNoService {
			return nil, nil, err
		}
		failures = append(failures, fmt.Errorf("%s (%s): %w", o.ID, o.Ref, err))
	}
	return nil, nil, fmt.Errorf("%w: all %d candidate(s) unreachable: %w",
		ErrNoLiveOffer, len(offers), errors.Join(failures...))
}

// ImportBind is the resilient import->bind operation: import the
// preference-ordered offer list for req (healthy offers before suspect
// ones), then bind the first live provider. This is the client-side
// half of the liveness story — even before the sweeper withdraws a
// dead offer, importers fail over past it instead of failing.
func ImportBind(ctx context.Context, imp Importer, pool *wire.Pool, req ImportRequest) (*cosm.Conn, *Offer, error) {
	offers, err := imp.Import(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	return BindFirstLive(ctx, pool, offers)
}

// ImportOne returns the single best offer for req from imp, or an error
// wrapping ErrNoOffer when nothing matches.
func ImportOne(ctx context.Context, imp Importer, req ImportRequest) (*Offer, error) {
	req.Max = 1
	offers, err := imp.Import(ctx, req)
	if err != nil {
		return nil, err
	}
	if len(offers) == 0 {
		return nil, fmt.Errorf("%w: type %q constraint %q", ErrNoOffer, req.Type, req.Constraint)
	}
	return offers[0], nil
}
