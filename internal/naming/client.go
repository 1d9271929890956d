package naming

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/wire"
)

// NameClient is a typed wrapper over a dynamic binding to a remote name
// server. It exists for the convenience of infrastructure code; a
// generic client can of course drive the same service from its SID
// alone.
type NameClient struct {
	conn *cosm.Conn
}

// DialNameServer binds to the name server behind r.
func DialNameServer(ctx context.Context, pool *wire.Pool, r ref.ServiceRef) (*NameClient, error) {
	conn, err := cosm.Bind(ctx, pool, r)
	if err != nil {
		return nil, err
	}
	return &NameClient{conn: conn}, nil
}

// Register binds name to target at the remote name server.
func (c *NameClient) Register(ctx context.Context, name string, target ref.ServiceRef) error {
	return wrapRemote(c.conn.Call(ctx, "Register", nil, name, target))
}

// Rebind binds name to target, replacing an existing binding.
func (c *NameClient) Rebind(ctx context.Context, name string, target ref.ServiceRef) error {
	return wrapRemote(c.conn.Call(ctx, "Rebind", nil, name, target))
}

// Unregister removes the binding for name.
func (c *NameClient) Unregister(ctx context.Context, name string) error {
	return wrapRemote(c.conn.Call(ctx, "Unregister", nil, name))
}

// Resolve returns the reference bound to name.
func (c *NameClient) Resolve(ctx context.Context, name string) (ref.ServiceRef, error) {
	var target ref.ServiceRef
	err := c.conn.Call(ctx, "Resolve", &target, name)
	return target, wrapRemote(err)
}

// List returns bindings by name prefix.
func (c *NameClient) List(ctx context.Context, prefix string) ([]Entry, error) {
	var entries []Entry
	err := c.conn.Call(ctx, "List", &entries, prefix)
	return entries, wrapRemote(err)
}

// GroupClient is a typed wrapper over a dynamic binding to a remote
// group manager.
type GroupClient struct {
	conn *cosm.Conn
}

// DialGroups binds to the group manager behind r.
func DialGroups(ctx context.Context, pool *wire.Pool, r ref.ServiceRef) (*GroupClient, error) {
	conn, err := cosm.Bind(ctx, pool, r)
	if err != nil {
		return nil, err
	}
	return &GroupClient{conn: conn}, nil
}

// Join adds endpoint to group.
func (c *GroupClient) Join(ctx context.Context, group, endpoint string) error {
	return wrapRemote(c.conn.Call(ctx, "Join", nil, group, endpoint))
}

// Leave removes endpoint from group.
func (c *GroupClient) Leave(ctx context.Context, group, endpoint string) error {
	return wrapRemote(c.conn.Call(ctx, "Leave", nil, group, endpoint))
}

// Members returns the endpoints in group.
func (c *GroupClient) Members(ctx context.Context, group string) ([]string, error) {
	var members []string
	err := c.conn.Call(ctx, "Members", &members, group)
	return members, wrapRemote(err)
}

// Groups returns all group names.
func (c *GroupClient) Groups(ctx context.Context) ([]string, error) {
	var names []string
	err := c.conn.Call(ctx, "Groups", &names)
	return names, wrapRemote(err)
}

// wrapRemote preserves the transport error chain and re-maps the name
// server's not-bound failure (which crosses the wire as message text
// only) back onto ErrNotFound for errors.Is.
func wrapRemote(err error) error {
	if err == nil {
		return nil
	}
	var re *wire.RemoteError
	if errors.As(err, &re) && re.Status == wire.StatusAppError && strings.Contains(re.Msg, ErrNotFound.Error()) {
		return fmt.Errorf("%w: %w", ErrNotFound, err)
	}
	return fmt.Errorf("naming: %w", err)
}
