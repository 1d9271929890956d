package activity

import (
	"context"
	"fmt"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
)

// ServiceName is the well-known hosted name of an activity manager.
const ServiceName = "cosm.activity"

// IDL is the activity manager's own service description.
const IDL = `
// Activity manager: groups invocations at several services into atomic
// units of work via two-phase commit.
module CosmActivity {
    interface COSM_Operations {
        // Start a new activity; returns its identifier.
        string Begin();
        // Enlist a participant service in an activity.
        void Join(in string activity, in Object participant);
        // Two-phase commit; TRUE if committed, FALSE if aborted.
        boolean Commit(in string activity);
        // Roll the activity back at every participant.
        void Abort(in string activity);
        // Report the activity's lifecycle state.
        string Status(in string activity);
    };
};
`

// NewService wraps a Manager as a hosted COSM service.
func NewService(m *Manager) (*cosm.Service, error) {
	sid, err := sidl.Parse(IDL)
	if err != nil {
		return nil, fmt.Errorf("activity: internal IDL: %w", err)
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		return nil, err
	}
	svc.MustHandle("Begin", func(call *cosm.Call) error {
		return call.Return(m.Begin())
	})
	svc.MustHandle("Join", func(call *cosm.Call) error {
		var id string
		var participant ref.ServiceRef
		if err := call.Args(&id, &participant); err != nil {
			return err
		}
		return m.Join(id, participant)
	})
	svc.MustHandle("Commit", func(call *cosm.Call) error {
		var id string
		if err := call.Args(&id); err != nil {
			return err
		}
		committed, err := m.Commit(context.Background(), id)
		if err != nil {
			return err
		}
		return call.Return(committed)
	})
	svc.MustHandle("Abort", func(call *cosm.Call) error {
		var id string
		if err := call.Args(&id); err != nil {
			return err
		}
		return m.Abort(context.Background(), id)
	})
	svc.MustHandle("Status", func(call *cosm.Call) error {
		var id string
		if err := call.Args(&id); err != nil {
			return err
		}
		state, err := m.Status(id)
		if err != nil {
			return err
		}
		return call.Return(state.String())
	})
	return svc, nil
}

// Client is a typed wrapper over a dynamic binding to a remote activity
// manager.
type Client struct {
	conn *cosm.Conn
}

// DialManager binds to the activity manager behind r.
func DialManager(ctx context.Context, pool *wire.Pool, r ref.ServiceRef) (*Client, error) {
	conn, err := cosm.Bind(ctx, pool, r)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Begin starts a new remote activity.
func (c *Client) Begin(ctx context.Context) (string, error) {
	var id string
	if err := c.conn.Call(ctx, "Begin", &id); err != nil {
		return "", fmt.Errorf("activity: remote begin: %w", err)
	}
	return id, nil
}

// Join enlists a participant.
func (c *Client) Join(ctx context.Context, id string, participant ref.ServiceRef) error {
	if err := c.conn.Call(ctx, "Join", nil, id, participant); err != nil {
		return fmt.Errorf("activity: remote join: %w", err)
	}
	return nil
}

// Commit drives two-phase commit; it reports whether the activity
// committed.
func (c *Client) Commit(ctx context.Context, id string) (bool, error) {
	var committed bool
	if err := c.conn.Call(ctx, "Commit", &committed, id); err != nil {
		return false, fmt.Errorf("activity: remote commit: %w", err)
	}
	return committed, nil
}

// Abort rolls the activity back.
func (c *Client) Abort(ctx context.Context, id string) error {
	if err := c.conn.Call(ctx, "Abort", nil, id); err != nil {
		return fmt.Errorf("activity: remote abort: %w", err)
	}
	return nil
}

// Status reports the activity's lifecycle state name.
func (c *Client) Status(ctx context.Context, id string) (string, error) {
	var state string
	if err := c.conn.Call(ctx, "Status", &state, id); err != nil {
		return "", fmt.Errorf("activity: remote status: %w", err)
	}
	return state, nil
}
