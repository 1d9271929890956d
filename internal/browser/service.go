package browser

import (
	"context"
	"fmt"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
)

// IDL is the browser's own service description — the browser is a COSM
// service too, which is what enables browser cascades (Fig. 4).
const IDL = `
// Directory of innovative services: communicable SIDs plus references.
module CosmBrowser {
    struct Entry_t {
        string name;
        Object target;
        string sidlText;
    };
    typedef sequence<Entry_t> Entries_t;
    typedef sequence<string> Names_t;
    interface COSM_Operations {
        // Register a SID together with its service reference.
        void RegisterSID(in string sidlText, in Object target);
        // Remove a registration by service name.
        void Withdraw(in string name);
        // List registered service names.
        Names_t List();
        // Fetch one entry (SID text and reference) by service name.
        Entry_t Get(in string name);
        // Keyword search over names, operations and annotations.
        Entries_t Search(in string keyword);
    };
};
`

// entryWire is Entry_t: an Entry with its description as SIDL text.
type entryWire struct {
	Name     string
	Target   ref.ServiceRef
	SidlText string
}

func wireEntry(e Entry) (entryWire, error) {
	text, err := e.SID.MarshalText()
	return entryWire{Name: e.Name, Target: e.Ref, SidlText: string(text)}, err
}

func (w *entryWire) entry() (Entry, error) {
	var sid sidl.SID
	if err := sid.UnmarshalText([]byte(w.SidlText)); err != nil {
		return Entry{}, fmt.Errorf("%w: %v", ErrBadSID, err)
	}
	return Entry{Name: w.Name, SID: &sid, Ref: w.Target}, nil
}

// NewService wraps a Directory as a hosted COSM service.
func NewService(d *Directory) (*cosm.Service, error) {
	sid, err := sidl.Parse(IDL)
	if err != nil {
		return nil, fmt.Errorf("browser: internal IDL: %w", err)
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		return nil, err
	}
	svc.MustHandle("RegisterSID", func(call *cosm.Call) error {
		var text string
		var target ref.ServiceRef
		if err := call.Args(&text, &target); err != nil {
			return err
		}
		parsed, err := sidl.Parse(text)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadSID, err)
		}
		return d.Register(parsed, target)
	})
	svc.MustHandle("Withdraw", func(call *cosm.Call) error {
		var name string
		if err := call.Args(&name); err != nil {
			return err
		}
		return d.Withdraw(name)
	})
	svc.MustHandle("List", func(call *cosm.Call) error {
		return call.Return(d.Names())
	})
	svc.MustHandle("Get", func(call *cosm.Call) error {
		var name string
		if err := call.Args(&name); err != nil {
			return err
		}
		e, err := d.Get(name)
		if err != nil {
			return err
		}
		w, err := wireEntry(e)
		if err != nil {
			return err
		}
		return call.Return(w)
	})
	svc.MustHandle("Search", func(call *cosm.Call) error {
		var keyword string
		if err := call.Args(&keyword); err != nil {
			return err
		}
		entries := d.Search(keyword)
		ws := make([]entryWire, len(entries))
		for i, e := range entries {
			w, err := wireEntry(e)
			if err != nil {
				return err
			}
			ws[i] = w
		}
		return call.Return(ws)
	})
	return svc, nil
}

// Client is a typed wrapper over a dynamic binding to a remote browser.
type Client struct {
	conn *cosm.Conn
}

// DialBrowser binds to the browser behind r.
func DialBrowser(ctx context.Context, pool *wire.Pool, r ref.ServiceRef) (*Client, error) {
	conn, err := cosm.Bind(ctx, pool, r)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// RegisterSID registers a description and reference at the remote
// browser (step 1 of Fig. 4).
func (c *Client) RegisterSID(ctx context.Context, sid *sidl.SID, target ref.ServiceRef) error {
	text, err := sid.MarshalText()
	if err != nil {
		return err
	}
	if err := c.conn.Call(ctx, "RegisterSID", nil, string(text), target); err != nil {
		return fmt.Errorf("browser: remote register: %w", err)
	}
	return nil
}

// Withdraw removes a registration at the remote browser.
func (c *Client) Withdraw(ctx context.Context, name string) error {
	if err := c.conn.Call(ctx, "Withdraw", nil, name); err != nil {
		return fmt.Errorf("browser: remote withdraw: %w", err)
	}
	return nil
}

// List returns the registered service names.
func (c *Client) List(ctx context.Context) ([]string, error) {
	var names []string
	if err := c.conn.Call(ctx, "List", &names); err != nil {
		return nil, fmt.Errorf("browser: remote list: %w", err)
	}
	return names, nil
}

// Get fetches one entry by service name, parsing the SID text.
func (c *Client) Get(ctx context.Context, name string) (Entry, error) {
	var w entryWire
	if err := c.conn.Call(ctx, "Get", &w, name); err != nil {
		return Entry{}, fmt.Errorf("browser: remote get: %w", err)
	}
	return w.entry()
}

// Search performs a keyword search at the remote browser.
func (c *Client) Search(ctx context.Context, keyword string) ([]Entry, error) {
	var ws []entryWire
	if err := c.conn.Call(ctx, "Search", &ws, keyword); err != nil {
		return nil, fmt.Errorf("browser: remote search: %w", err)
	}
	entries := make([]Entry, len(ws))
	for i := range ws {
		e, err := ws[i].entry()
		if err != nil {
			return nil, err
		}
		entries[i] = e
	}
	return entries, nil
}
