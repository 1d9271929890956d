package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cosm/internal/obs"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/wire"
)

// TestLeaderKillTimeline kills the leader of a three-node cluster and
// asserts the merged cluster event timeline tells the failover story in
// causal order: suspicion, a candidacy, a granted vote, the promotion —
// and, once the old leader restarts, its rejoin.
func TestLeaderKillTimeline(t *testing.T) {
	endpoints, refs := soakEndpoints(3)
	nodes := make([]*soakNode, 3)
	for i := range nodes {
		var peers []string
		for j := range refs {
			if j != i {
				peers = append(peers, refs[j].String())
			}
		}
		nodes[i] = &soakNode{
			idx:      i,
			id:       fmt.Sprintf("n%d", i),
			dir:      t.TempDir(),
			endpoint: endpoints[i],
			ref:      refs[i],
			peers:    peers,
			faults:   wire.NewFaultNet(wire.FaultConfig{Seed: int64(i) + 1}, wire.DialConnContext),
			events:   obs.NewEventLog(fmt.Sprintf("n%d", i), 256),
		}
	}
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()
	for _, n := range nodes {
		if err := n.start(); err != nil {
			t.Fatal(err)
		}
	}
	n0, _, _, _ := nodes[0].snapshot()
	if err := n0.Promote(1); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:] {
		tr, _, _, _ := n.snapshot()
		tr.SetFollower(refs[0].String())
	}
	if err := n0.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}

	nodes[0].kill()
	waitLeader := func() bool {
		for _, n := range nodes[1:] {
			if tr, _, _, alive := n.snapshot(); alive && tr != nil && tr.Role() == trader.RoleLeader {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(15 * time.Second)
	for !waitLeader() {
		if time.Now().After(deadline) {
			t.Fatal("no replacement leader elected")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Restart the old leader: it must discover the winner and rejoin.
	if err := nodes[0].start(); err != nil {
		t.Fatal(err)
	}
	rejoined := func() bool {
		tr, _, _, alive := nodes[0].snapshot()
		return alive && tr != nil && tr.Role() == trader.RoleFollower && tr.Epoch() >= 2
	}
	for !rejoined() {
		if time.Now().After(deadline) {
			t.Fatal("old leader never rejoined")
		}
		time.Sleep(50 * time.Millisecond)
	}

	var sb strings.Builder
	printSoakTimeline(&sb, nodes)
	out := sb.String()
	// Scan forward: each stage must appear after the previous one (the
	// bootstrap promotion at epoch 1 precedes the kill, so a global
	// search would find the wrong promote).
	pos := 0
	for _, kind := range []string{"suspect", "candidacy", "vote_granted", "promote", "demote_rejoin"} {
		i := strings.Index(out[pos:], kind)
		if i < 0 {
			t.Fatalf("timeline missing %q after offset %d:\n%s", kind, pos, out)
		}
		pos += i + len(kind)
	}
}
