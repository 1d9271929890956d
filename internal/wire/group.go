package wire

import (
	"context"
	"sort"
	"sync"
)

// Group is a set of endpoints that can be addressed as one — the
// communication level's multicast/broadcast function (Fig. 6). Calls fan
// out concurrently over a shared Pool and results are gathered per
// member. Groups are safe for concurrent use.
type Group struct {
	pool *Pool

	mu      sync.Mutex
	members map[string]bool
}

// NewGroup returns an empty group drawing connections from pool.
func NewGroup(pool *Pool) *Group {
	return &Group{pool: pool, members: map[string]bool{}}
}

// Join adds an endpoint to the group (idempotent).
func (g *Group) Join(endpoint string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members[endpoint] = true
}

// Leave removes an endpoint from the group (idempotent).
func (g *Group) Leave(endpoint string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.members, endpoint)
}

// Members returns the endpoints in the group, sorted.
func (g *Group) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	members := make([]string, 0, len(g.members))
	for m := range g.members {
		members = append(members, m)
	}
	sort.Strings(members)
	return members
}

// Size returns the number of members.
func (g *Group) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// GroupResult is the per-member outcome of a broadcast.
type GroupResult struct {
	Endpoint string
	Body     string
	Err      error
}

// Broadcast sends req to every member concurrently and gathers all
// results, ordered by endpoint. A member's dial or call failure appears
// in its result; the broadcast itself always completes.
func (g *Group) Broadcast(ctx context.Context, req *Request) []GroupResult {
	members := g.Members()
	results := make([]GroupResult, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, endpoint string) {
			defer wg.Done()
			results[i] = GroupResult{Endpoint: endpoint}
			client, err := g.pool.Get(ctx, endpoint)
			if err != nil {
				results[i].Err = err
				return
			}
			body, err := client.Call(ctx, req)
			results[i].Body = body
			results[i].Err = err
		}(i, m)
	}
	wg.Wait()
	return results
}

// Anycast tries members in sorted order and returns the first successful
// response. It returns the last error if every member fails, or
// ErrClientClosed if the group is empty.
func (g *Group) Anycast(ctx context.Context, req *Request) (string, error) {
	var lastErr error = ErrClientClosed
	for _, m := range g.Members() {
		client, err := g.pool.Get(ctx, m)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := client.Call(ctx, req)
		if err == nil {
			return body, nil
		}
		lastErr = err
	}
	return "", lastErr
}
