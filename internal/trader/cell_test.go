package trader

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

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
