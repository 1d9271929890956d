package naming

import (
	"fmt"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// IDL is the name server's own service description: the name server is
// a COSM service like any other and can therefore be described, browsed
// and invoked generically.
const IDL = `
// Binds names to service references for one administrative domain.
module CosmNaming {
    struct Entry_t {
        string name;
        Object target;
    };
    typedef sequence<Entry_t> Entries_t;
    interface COSM_Operations {
        // Bind a name; fails if the name is already bound.
        void Register(in string name, in Object target);
        // Bind a name, replacing any existing binding.
        void Rebind(in string name, in Object target);
        // Remove a binding (no-op if absent).
        void Unregister(in string name);
        // Resolve a name to a service reference.
        Object Resolve(in string name);
        // List bindings by name prefix ("" lists all).
        Entries_t List(in string prefix);
    };
};
`

// GroupIDL is the group manager's service description.
const GroupIDL = `
// Maintains named endpoint groups for multicast/broadcast.
module CosmGroups {
    typedef sequence<string> Members_t;
    interface COSM_Operations {
        void Join(in string group, in string endpoint);
        void Leave(in string group, in string endpoint);
        Members_t Members(in string group);
        Members_t Groups();
    };
};
`

// NewService wraps a Registry as a hosted COSM service. Arguments and
// results bind to Go types through the operation signatures (see
// cosm.Call.Args); Entry has the shape of Entry_t and binds as it is.
func NewService(reg *Registry) (*cosm.Service, error) {
	sid, err := sidl.Parse(IDL)
	if err != nil {
		return nil, fmt.Errorf("naming: internal IDL: %w", err)
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		return nil, err
	}
	bind := func(do func(name string, target ref.ServiceRef) error) cosm.OpHandler {
		return func(call *cosm.Call) error {
			var name string
			var target ref.ServiceRef
			if err := call.Args(&name, &target); err != nil {
				return err
			}
			return do(name, target)
		}
	}
	svc.MustHandle("Register", bind(reg.Register))
	svc.MustHandle("Rebind", bind(reg.Rebind))
	svc.MustHandle("Unregister", func(call *cosm.Call) error {
		var name string
		if err := call.Args(&name); err != nil {
			return err
		}
		reg.Unregister(name)
		return nil
	})
	svc.MustHandle("Resolve", func(call *cosm.Call) error {
		var name string
		if err := call.Args(&name); err != nil {
			return err
		}
		target, err := reg.Resolve(name)
		if err != nil {
			return err
		}
		return call.Return(target)
	})
	svc.MustHandle("List", func(call *cosm.Call) error {
		var prefix string
		if err := call.Args(&prefix); err != nil {
			return err
		}
		return call.Return(reg.List(prefix))
	})
	return svc, nil
}

// NewGroupService wraps a Groups store as a hosted COSM service.
func NewGroupService(groups *Groups) (*cosm.Service, error) {
	sid, err := sidl.Parse(GroupIDL)
	if err != nil {
		return nil, fmt.Errorf("naming: internal group IDL: %w", err)
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		return nil, err
	}
	svc.MustHandle("Join", func(call *cosm.Call) error {
		var group, endpoint string
		if err := call.Args(&group, &endpoint); err != nil {
			return err
		}
		return groups.Join(group, endpoint)
	})
	svc.MustHandle("Leave", func(call *cosm.Call) error {
		var group, endpoint string
		if err := call.Args(&group, &endpoint); err != nil {
			return err
		}
		groups.Leave(group, endpoint)
		return nil
	})
	svc.MustHandle("Members", func(call *cosm.Call) error {
		var group string
		if err := call.Args(&group); err != nil {
			return err
		}
		return call.Return(groups.Members(group))
	})
	svc.MustHandle("Groups", func(call *cosm.Call) error {
		return call.Return(groups.Names())
	})
	return svc, nil
}
