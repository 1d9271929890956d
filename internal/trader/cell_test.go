package trader

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"cosm/internal/journal"
	"cosm/internal/obs"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// TestBackgroundLoopLifecycle holds the trader's four background loops
// to one contract: Close is idempotent, safe before Start and after it,
// and a late or repeated Start is harmless. Every row runs under a
// deadline, so a Close that blocks fails instead of hanging the suite.
func TestBackgroundLoopLifecycle(t *testing.T) {
	type lifecycle struct{ start, close func() }
	nowhere := func(context.Context, string) (CellPeer, error) { return inProc{New("L", typemgr.NewRepo())}, nil }
	loops := map[string]func() lifecycle{
		"gossiper": func() lifecycle {
			g := NewGossiper(New("G", typemgr.NewRepo()), time.Millisecond, 0)
			return lifecycle{g.Start, g.Close}
		},
		"sweeper": func() lifecycle {
			sw := NewSweeper(New("S", typemgr.NewRepo()), nil)
			return lifecycle{sw.Start, func() { _ = sw.Close() }}
		},
		"cell replica": func() lifecycle {
			tr := New("F", typemgr.NewRepo())
			tr.SetFollower("cosm://leader")
			c := newCell(tr, CellConfig{Dial: nowhere})
			return lifecycle{c.start, c.Close}
		},
		"cell member": func() lifecycle {
			tr := New("M", typemgr.NewRepo())
			tr.SetFollower("cosm://leader")
			c := newCell(tr, CellConfig{SelfRef: "cosm://m", Peers: []string{"cosm://leader"}, Dial: nowhere, ElectionTimeout: 10 * time.Millisecond})
			return lifecycle{c.start, c.Close}
		},
	}
	orders := []string{"close", "close close", "start close close", "close start close", "start start close"}
	for name, build := range loops {
		for _, order := range orders {
			t.Run(name+"/"+order, func(t *testing.T) {
				l := build()
				done := make(chan any, 1)
				go func() {
					defer func() { done <- recover() }()
					for _, step := range strings.Fields(order) {
						if step == "start" {
							l.start()
						} else {
							l.close()
						}
					}
				}()
				select {
				case r := <-done:
					if r != nil {
						t.Fatalf("panicked: %v", r)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("blocked")
				}
			})
		}
	}
}

// TestLoopStopWaitsForRun: stop returns only once the round in flight
// has, and a start after stop runs nothing.
func TestLoopStopWaitsForRun(t *testing.T) {
	var l loop
	var mu sync.Mutex
	finished := false
	running := make(chan struct{})
	l.start(func(ctx context.Context) {
		close(running)
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond) // the round winding down
		mu.Lock()
		finished = true
		mu.Unlock()
	})
	<-running
	l.stop()
	mu.Lock()
	defer mu.Unlock()
	if !finished {
		t.Fatal("stop returned before the loop had")
	}
	l.start(func(context.Context) { t.Error("started after stop") })
	l.stop()
}

// TestCellRetargetsAtRecoveredHint: a member assembled after
// SetFollower(ref) pulls from ref with no further step — the leader
// hint is the one place the pull loop's target lives.
func TestCellRetargetsAtRecoveredHint(t *testing.T) {
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer lj.Close()
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 50, "USD")); err != nil {
		t.Fatal(err)
	}
	follower, fj := newDurableTrader(t, "F", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer fj.Close()
	follower.SetFollower("cosm://leader")

	dialled := make(chan string, 16)
	c := follower.JoinCell(CellConfig{Dial: func(_ context.Context, memberRef string) (CellPeer, error) {
		dialled <- memberRef
		return inProc{leader}, nil
	}})
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for follower.ReplApplied() < leader.Status().LastSeq {
		if time.Now().After(deadline) {
			t.Fatal("member never pulled from its recovered leader hint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := <-dialled; got != "cosm://leader" {
		t.Fatalf("pull loop dialled %q, want the hint SetFollower left", got)
	}
	if follower.OfferCount() != 1 {
		t.Fatalf("follower holds %d offers, want the leader's 1", follower.OfferCount())
	}
}

// TestIdleCellNeverRelocates: a healthy three-member cell with a short
// election timeout, left idle, stays put. An idle pull long-polls the
// leader; were the poll longer than two election timeouts, suspectNow
// would read the quiet link as a wedged loop and each follower would
// "relocate" to its own leader about once a second.
func TestIdleCellNeverRelocates(t *testing.T) {
	d := newPeerDirectory()
	refs := []string{"cosm://A", "cosm://B", "cosm://C"}
	var members []*Trader
	for i, ref := range refs {
		tr, j := newDurableTrader(t, ref[len("cosm://"):], t.TempDir(), journal.Options{Fsync: journal.FsyncAlways},
			WithMetrics(obs.NewRegistry()))
		defer j.Close()
		if i > 0 {
			tr.SetFollower(refs[0])
		}
		d.add(ref, tr)
		members = append(members, tr)
	}
	for i, tr := range members {
		peers := append(append([]string(nil), refs[:i]...), refs[i+1:]...)
		c := tr.JoinCell(CellConfig{SelfRef: refs[i], Peers: peers, Dial: d.dial, ElectionTimeout: 300 * time.Millisecond})
		defer c.Close()
	}
	time.Sleep(3 * time.Second)
	for i, tr := range members {
		if n := tr.metrics.elections.With("relocated").Value(); n != 0 {
			t.Errorf("%s relocated %d times in an idle, healthy cell", refs[i], n)
		}
		if want := i > 0; tr.repl.isFollower() != want || tr.Epoch() != members[0].Epoch() {
			t.Errorf("%s: follower %v at epoch %d; the cell must not have changed leaders", refs[i], tr.repl.isFollower(), tr.Epoch())
		}
	}
}
