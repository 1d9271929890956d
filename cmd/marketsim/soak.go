package main

// The chaos soak harness (-soak): a replicated trader cluster — each
// node a real journaled trader serving over local TCP — driven through
// a seeded schedule of the failures a long-lived deployment actually
// meets: leader crashes, full and asymmetric partitions, disk faults
// latching a journal fail-stop, follower churn. A continuous invariant
// checker watches the cluster the whole time:
//
//   - no two nodes ever claim leadership of the same epoch at the
//     same time, and no epoch is won by two different elections,
//   - a node's epoch never moves backwards within one incarnation,
//   - no acknowledged export is ever lost (writes are synchronously
//     replicated, so an ack means a quorum-electable copy exists),
//   - after the schedule ends and the cluster heals, every node
//     converges to byte-identical import results.
//
// The process exits non-zero on any violation; "invariants: clean" on
// the last line is the marker CI greps for.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/journal"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

// soakConfig parameterises the chaos soak run.
type soakConfig struct {
	seed   int64
	nodes  int
	rounds int
}

func registerSoakFlags(fs *flag.FlagSet) *soakConfig {
	sc := &soakConfig{}
	fs.IntVar(&sc.nodes, "soak-nodes", 3, "replicated cluster size (3-5)")
	fs.IntVar(&sc.rounds, "soak-rounds", 8, "fault-injection rounds before the final convergence check")
	return sc
}

const (
	soakElectionTimeout = 300 * time.Millisecond
	soakReplSyncWait    = 1500 * time.Millisecond
	soakServiceType     = "CarRentalService"
)

// soakNode is one cluster member. The identity — index, data dir,
// listen endpoint, fault injectors — survives kill/restart; the
// trader, journal, node and cell membership are per-incarnation.
type soakNode struct {
	idx       int
	id        string
	dir       string
	endpoint  string
	ref       ref.ServiceRef
	peers     []string // refs of the other members
	faults    *wire.FaultNet
	events    *obs.EventLog      // per-node timeline, survives incarnations
	onPromote func(epoch uint64) // election-win observer (the checker)

	mu          sync.Mutex
	alive       bool
	incarnation int
	wasFollower bool   // role at last kill: restart restores it
	lastHint    string // leader hint at last kill
	tr          *trader.Trader
	j           *journal.Journal
	vl          *trader.VoteLog
	inj         *journal.FaultInjector
	node        *cosm.Node
	pool        *wire.Pool
	cell        *trader.Cell
}

// start boots one incarnation: recover from the data dir, serve on the
// fixed endpoint, join the cell.
func (n *soakNode) start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive {
		return nil
	}
	n.incarnation++
	n.inj = journal.NewFaultInjector()
	j, err := journal.Open(n.dir, journal.Options{
		Fsync:     journal.FsyncAlways,
		FaultHook: n.inj.Hook(),
	})
	if err != nil {
		return err
	}
	tr := trader.New(n.id, typemgr.NewRepo(),
		trader.WithImportCacheTTL(0), // convergence checks need fresh reads
		trader.WithReplSync(1, soakReplSyncWait),
		trader.WithEvents(n.events),
	)
	if err := j.Recover(tr); err != nil {
		return err
	}
	// The durable vote ledger closes the restart double-vote window:
	// kills land mid-election here by design.
	vl, err := trader.OpenVoteLog(n.dir)
	if err != nil {
		return err
	}
	tr.SetVoteLog(vl)
	n.vl = vl
	if n.wasFollower {
		// Restore the pre-crash role, as a real deployment's -follow
		// config would: the journal holds replicated epoch records, so
		// without this a restarted replica would boot claiming to lead
		// an epoch that belongs to someone else.
		tr.SetFollower(n.lastHint)
	}

	svc, err := trader.NewService(tr)
	if err != nil {
		return err
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := node.Host(trader.ServiceName, svc); err != nil {
		return err
	}
	if _, err := node.ListenAndServe(n.endpoint); err != nil {
		return err
	}
	// All outbound traffic — pulls, votes, status scans — crosses this
	// node's FaultNet, so partitions cut exactly what a real network
	// partition would.
	pool := wire.NewPool(wire.WithDialer(n.faults.Dial))
	cell := tr.JoinCell(trader.CellConfig{
		SelfRef:         n.ref.String(),
		Peers:           n.peers,
		Dial:            trader.PoolDial(pool),
		ElectionTimeout: soakElectionTimeout,
		OnPromote:       n.onPromote,
	})

	n.alive = true
	n.tr, n.j, n.node, n.pool, n.cell = tr, j, node, pool, cell
	return nil
}

// kill tears the incarnation down abruptly: loops stopped, sockets
// dropped, no drain. FsyncAlways means everything acknowledged is
// already on disk, so this is as close to kill -9 as one process gets.
func (n *soakNode) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	n.alive = false
	n.wasFollower = n.tr.Role() == trader.RoleFollower
	n.lastHint = n.tr.LeaderHint()
	n.cell.Close()
	n.node.Close()
	n.pool.Close()
	_ = n.j.Close()
	_ = n.vl.Close()
	n.tr, n.j, n.vl, n.node, n.pool, n.cell = nil, nil, nil, nil, nil, nil
}

// snapshot returns the live handles of the current incarnation (nil
// trader when down) without racing a restart.
func (n *soakNode) snapshot() (tr *trader.Trader, j *journal.Journal, incarnation int, alive bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tr, n.j, n.incarnation, n.alive
}

// soakViolations collects invariant violations from every goroutine.
type soakViolations struct {
	mu   sync.Mutex
	list []string
}

func (v *soakViolations) addf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.list = append(v.list, fmt.Sprintf(format, args...))
}

func (v *soakViolations) all() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.list...)
}

// soakChecker continuously verifies the run-time invariants:
// per-incarnation epoch monotonicity; no two nodes simultaneously
// claiming leadership of the same epoch (a node restarting on its
// journal may transiently re-claim an OLD epoch until the monitor
// deposes it — that is crash recovery, not split brain, so only
// same-instant claims count); and, through the OnPromote hook, no
// epoch ever won by two different elections.
type soakChecker struct {
	nodes []*soakNode
	viol  *soakViolations

	electMu sync.Mutex
	elected map[uint64]string // epoch -> node id that won it

	lastSeen map[string]uint64 // "idx/incarnation" -> last epoch
	stop     chan struct{}
	done     chan struct{}
}

func newSoakChecker(nodes []*soakNode, viol *soakViolations) *soakChecker {
	return &soakChecker{
		nodes:    nodes,
		viol:     viol,
		elected:  map[uint64]string{},
		lastSeen: map[string]uint64{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// onElect observes one election win (wired into every incarnation's
// CellConfig.OnPromote): quorum fencing must make wins unique per
// epoch across the whole run, restarts included.
func (c *soakChecker) onElect(id string, epoch uint64) {
	c.electMu.Lock()
	defer c.electMu.Unlock()
	if who, ok := c.elected[epoch]; ok && who != id {
		c.viol.addf("double election: both %s and %s won epoch %d", who, id, epoch)
		return
	}
	c.elected[epoch] = id
}

func (c *soakChecker) run() {
	defer close(c.done)
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.poll()
		}
	}
}

func (c *soakChecker) poll() {
	claims := map[uint64]string{} // epoch -> claimant, this instant
	for _, n := range c.nodes {
		tr, _, inc, alive := n.snapshot()
		if !alive || tr == nil {
			continue
		}
		st := tr.Status()
		key := fmt.Sprintf("%d/%d", n.idx, inc)
		if last, ok := c.lastSeen[key]; ok && st.Epoch < last {
			c.viol.addf("node %s epoch moved backwards: %d -> %d (incarnation %d)",
				n.id, last, st.Epoch, inc)
		}
		c.lastSeen[key] = st.Epoch
		if st.Role == trader.RoleLeader {
			if who, ok := claims[st.Epoch]; ok && who != n.id {
				c.viol.addf("split brain: %s and %s both lead at epoch %d simultaneously",
					who, n.id, st.Epoch)
			}
			claims[st.Epoch] = n.id
		}
	}
}

func (c *soakChecker) close() {
	close(c.stop)
	<-c.done
}

// ackedExport is one export the cluster acknowledged: it must exist on
// the final leader no matter what the schedule did in between.
type ackedExport struct {
	id     string
	serial int
}

// soakWorkload continuously exports offers through the wire like an
// external client: find the current leader, export with a deadline,
// record the ack. Only acknowledged exports join the ledger.
type soakWorkload struct {
	nodes []*soakNode
	pool  *wire.Pool

	mu     sync.Mutex
	acked  []ackedExport
	serial int
	errs   int

	stop chan struct{}
	done chan struct{}
}

func newSoakWorkload(nodes []*soakNode) *soakWorkload {
	return &soakWorkload{
		nodes: nodes,
		pool:  wire.NewPool(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// leaderRef finds the highest-epoch node currently claiming
// leadership, the same way an operator's health dashboard would.
func (w *soakWorkload) leaderRef() (ref.ServiceRef, bool) {
	var best ref.ServiceRef
	bestEpoch, found := uint64(0), false
	for _, n := range w.nodes {
		tr, _, _, alive := n.snapshot()
		if !alive || tr == nil {
			continue
		}
		if st := tr.Status(); st.Role == trader.RoleLeader && (!found || st.Epoch > bestEpoch) {
			best, bestEpoch, found = n.ref, st.Epoch, true
		}
	}
	return best, found
}

func (w *soakWorkload) run() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			return
		case <-time.After(25 * time.Millisecond):
		}
		r, ok := w.leaderRef()
		if !ok {
			continue
		}
		w.mu.Lock()
		serial := w.serial
		w.serial++
		w.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		id, err := w.exportOnce(ctx, r, serial)
		cancel()
		w.mu.Lock()
		if err != nil {
			w.errs++
		} else {
			w.acked = append(w.acked, ackedExport{id: id, serial: serial})
		}
		w.mu.Unlock()
	}
}

func (w *soakWorkload) exportOnce(ctx context.Context, r ref.ServiceRef, serial int) (string, error) {
	tc, err := trader.DialTrader(ctx, w.pool, r)
	if err != nil {
		return "", err
	}
	tc.FollowLeaderHints(true)
	return tc.Export(ctx, soakServiceType,
		ref.New(fmt.Sprintf("tcp:10.9.%d.%d:7000", serial/250, serial%250), soakServiceType),
		[]sidl.Property{
			{Name: "CarModel", Value: sidl.EnumLit("FIAT_Uno")},
			{Name: "AverageMilage", Value: sidl.IntLit(int64(serial))},
			{Name: "ChargePerDay", Value: sidl.FloatLit(float64(40 + serial%60))},
			{Name: "ChargeCurrency", Value: sidl.EnumLit("USD")},
		})
}

func (w *soakWorkload) close() (acked []ackedExport, errs int) {
	close(w.stop)
	<-w.done
	w.pool.Close()
	return w.acked, w.errs
}

// runSoak stands the cluster up, runs the seeded fault schedule with
// the workload and checker live, heals everything, and verifies the
// final invariants.
func runSoak(w io.Writer, sc soakConfig) error {
	if sc.nodes < 3 || sc.nodes > 5 {
		return fmt.Errorf("-soak-nodes %d: cluster must be 3-5 nodes", sc.nodes)
	}
	rng := rand.New(rand.NewSource(sc.seed))
	fmt.Fprintf(w, "COSM chaos soak: %d nodes, %d rounds, seed %d, election timeout %v\n",
		sc.nodes, sc.rounds, sc.seed, soakElectionTimeout)

	endpoints, refs := soakEndpoints(sc.nodes)
	nodes := make([]*soakNode, sc.nodes)
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
			dir:      fmt.Sprintf("%s/node-%d", soakTempDir(), i),
			endpoint: endpoints[i],
			ref:      refs[i],
			peers:    peers,
			faults:   wire.NewFaultNet(wire.FaultConfig{Seed: sc.seed + int64(i)}, wire.DialConnContext),
			events:   obs.NewEventLog(fmt.Sprintf("n%d", i), 512),
		}
	}
	viol := &soakViolations{}
	checker := newSoakChecker(nodes, viol)
	for _, n := range nodes {
		n := n
		n.onPromote = func(epoch uint64) { checker.onElect(n.id, epoch) }
	}
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()
	for _, n := range nodes {
		if err := n.start(); err != nil {
			return err
		}
	}
	// Bootstrap: node 0 leads at epoch 1, the others follow it.
	n0, _, _, _ := nodes[0].snapshot()
	if err := n0.Promote(1); err != nil {
		return err
	}
	for _, n := range nodes[1:] {
		tr, _, _, _ := n.snapshot()
		tr.SetFollower(refs[0].String())
	}
	if err := n0.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		return err
	}

	go checker.run()
	work := newSoakWorkload(nodes)
	go work.run()

	d := &soakDriver{w: w, nodes: nodes, rng: rng, viol: viol}
	events := []func(){d.leaderKill, d.leaderIsolate, d.partition, d.asymPartition, d.diskFault, d.followerChurn}
	names := []string{"leader-kill", "leader-isolate", "partition", "asym-partition", "disk-fault", "follower-churn"}
	perm := rng.Perm(len(events))
	for round := 0; round < sc.rounds; round++ {
		pick := perm[round%len(events)]
		fmt.Fprintf(w, "round %d: %s\n", round+1, names[pick])
		events[pick]()
		time.Sleep(2 * soakElectionTimeout)
	}

	// Heal the world: clear every partition, restart every dead or
	// fail-stopped node, stop the workload, and let the cluster quiesce.
	d.healAll()
	acked, errs := work.close()
	leader, err := d.quiesce(20 * time.Second)
	if err != nil {
		viol.addf("no converged leader after healing: %v", err)
	}
	checker.close()

	fmt.Fprintf(w, "workload: %d acknowledged exports, %d rejected/timed out\n", len(acked), errs)
	if d.failovers > 0 {
		fmt.Fprintf(w, "failovers: %d, detection+election latency min=%v avg=%v max=%v\n",
			d.failovers, d.latMin.Round(time.Millisecond),
			(d.latSum / time.Duration(d.failovers)).Round(time.Millisecond),
			d.latMax.Round(time.Millisecond))
	}

	if leader != nil {
		d.verifyFinal(leader, acked, viol)
	}

	if vs := viol.all(); len(vs) > 0 {
		for _, v := range vs {
			fmt.Fprintf(w, "INVARIANT VIOLATION: %s\n", v)
		}
		// The post-mortem: every node's lifecycle timeline, merged into
		// one causally ordered cluster view — the same picture `cosmcli
		// events` would assemble from live daemons.
		fmt.Fprintln(w, "cluster event timeline:")
		printSoakTimeline(w, nodes)
		return fmt.Errorf("soak failed: %d invariant violation(s)", len(vs))
	}
	fmt.Fprintln(w, "invariants: clean")
	return nil
}

// printSoakTimeline merges and prints every node's event log.
func printSoakTimeline(w io.Writer, nodes []*soakNode) {
	logs := make([][]obs.Event, 0, len(nodes))
	for _, n := range nodes {
		logs = append(logs, n.events.Events())
	}
	for _, e := range obs.MergeEvents(logs...) {
		fmt.Fprintf(w, "  %s %-4s %-18s", e.Time.Format("15:04:05.000"), e.Node, e.Kind)
		keys := make([]string, 0, len(e.Attr))
		for k := range e.Attr {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%s", k, e.Attr[k])
		}
		fmt.Fprintln(w)
	}
}

// soakDriver executes the fault schedule and tracks failover latency.
type soakDriver struct {
	w     io.Writer
	nodes []*soakNode
	rng   *rand.Rand
	viol  *soakViolations

	failovers              int
	latMin, latMax, latSum time.Duration
}

// leader returns the highest-epoch live node claiming leadership.
func (d *soakDriver) leader() *soakNode {
	var best *soakNode
	bestEpoch := uint64(0)
	for _, n := range d.nodes {
		tr, _, _, alive := n.snapshot()
		if !alive || tr == nil {
			continue
		}
		if st := tr.Status(); st.Role == trader.RoleLeader && (best == nil || st.Epoch > bestEpoch) {
			best, bestEpoch = n, st.Epoch
		}
	}
	return best
}

// awaitNewLeader waits for a live leader other than excluded and
// records the failover latency from t0.
func (d *soakDriver) awaitNewLeader(excluded *soakNode, t0 time.Time) *soakNode {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if l := d.leader(); l != nil && l != excluded {
			lat := time.Since(t0)
			d.failovers++
			d.latSum += lat
			if d.latMin == 0 || lat < d.latMin {
				d.latMin = lat
			}
			if lat > d.latMax {
				d.latMax = lat
			}
			fmt.Fprintf(d.w, "  new leader %s at epoch %d after %v\n",
				l.id, l.tr.Epoch(), lat.Round(time.Millisecond))
			return l
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.viol.addf("no new leader elected within 15s (previous: %s)", excluded.id)
	return nil
}

func (d *soakDriver) leaderKill() {
	l := d.leader()
	if l == nil {
		fmt.Fprintln(d.w, "  (no leader to kill)")
		return
	}
	fmt.Fprintf(d.w, "  kill -9 leader %s\n", l.id)
	t0 := time.Now()
	l.kill()
	if d.awaitNewLeader(l, t0) == nil {
		return
	}
	// The old leader restarts on its old data dir, discovers it was
	// deposed, and rejoins as a follower.
	if err := l.start(); err != nil {
		d.viol.addf("restart %s: %v", l.id, err)
	}
}

func (d *soakDriver) leaderIsolate() {
	l := d.leader()
	if l == nil {
		fmt.Fprintln(d.w, "  (no leader to isolate)")
		return
	}
	fmt.Fprintf(d.w, "  partition leader %s away from every peer\n", l.id)
	t0 := time.Now()
	for _, n := range d.nodes {
		if n != l {
			n.faults.Block(l.endpoint)
			l.faults.Block(n.endpoint)
		}
	}
	d.awaitNewLeader(l, t0)
	// Heal: the deposed leader finds the new epoch and demote-rejoins.
	for _, n := range d.nodes {
		if n != l {
			n.faults.Unblock(l.endpoint)
			l.faults.Unblock(n.endpoint)
		}
	}
}

func (d *soakDriver) partition() {
	// Symmetric split: a random minority against the rest.
	k := 1
	if len(d.nodes) >= 5 {
		k = 2
	}
	minority := map[int]bool{}
	for len(minority) < k {
		minority[d.rng.Intn(len(d.nodes))] = true
	}
	fmt.Fprintf(d.w, "  symmetric partition: minority %v\n", soakKeys(minority))
	sever := func(block bool) {
		for i, a := range d.nodes {
			for j, b := range d.nodes {
				if i != j && minority[i] != minority[j] {
					if block {
						a.faults.Block(b.endpoint)
					} else {
						a.faults.Unblock(b.endpoint)
					}
				}
			}
		}
	}
	sever(true)
	// If the leader landed in the minority the majority elects past it;
	// either way the minority must never promote (quorum fencing).
	time.Sleep(4 * soakElectionTimeout)
	sever(false)
}

func (d *soakDriver) asymPartition() {
	i := d.rng.Intn(len(d.nodes))
	j := d.rng.Intn(len(d.nodes) - 1)
	if j >= i {
		j++
	}
	a, b := d.nodes[i], d.nodes[j]
	fmt.Fprintf(d.w, "  asymmetric partition: %s cannot reach %s\n", a.id, b.id)
	a.faults.Block(b.endpoint)
	time.Sleep(4 * soakElectionTimeout)
	a.faults.Unblock(b.endpoint)
}

func (d *soakDriver) diskFault() {
	// Latch a fail-stop on a random live node's journal: its next fsync
	// fails, the journal refuses further writes, and the trader demotes
	// itself rather than acknowledging unpersistable mutations.
	var victims []*soakNode
	for _, n := range d.nodes {
		if _, j, _, alive := n.snapshot(); alive && j != nil && j.Failed() == nil {
			victims = append(victims, n)
		}
	}
	if len(victims) == 0 {
		fmt.Fprintln(d.w, "  (no healthy journal to fault)")
		return
	}
	v := victims[d.rng.Intn(len(victims))]
	_, j, _, _ := v.snapshot()
	wasLeader := d.leader() == v
	fmt.Fprintf(d.w, "  disk fault on %s (leader=%v): next fsync fails\n", v.id, wasLeader)
	v.inj.FailNow(journal.FaultFsync, fmt.Errorf("soak: injected fsync fault"))
	t0 := time.Now()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && j.Failed() == nil {
		time.Sleep(10 * time.Millisecond)
	}
	if j.Failed() == nil {
		fmt.Fprintln(d.w, "  (no write arrived to trip the fault; disarming)")
	} else if wasLeader {
		d.awaitNewLeader(v, t0)
	}
	// "Replace the disk": restart the node on the same directory with a
	// fresh, fault-free journal handle.
	v.kill()
	if err := v.start(); err != nil {
		d.viol.addf("restart %s after disk fault: %v", v.id, err)
	}
}

func (d *soakDriver) followerChurn() {
	l := d.leader()
	var followers []*soakNode
	for _, n := range d.nodes {
		if _, _, _, alive := n.snapshot(); alive && n != l {
			followers = append(followers, n)
		}
	}
	if len(followers) == 0 {
		fmt.Fprintln(d.w, "  (no follower to churn)")
		return
	}
	f := followers[d.rng.Intn(len(followers))]
	fmt.Fprintf(d.w, "  churn follower %s: kill, pause, restart\n", f.id)
	f.kill()
	time.Sleep(2 * soakElectionTimeout)
	if err := f.start(); err != nil {
		d.viol.addf("restart %s: %v", f.id, err)
	}
}

// healAll clears every partition and restarts every dead node.
func (d *soakDriver) healAll() {
	for _, a := range d.nodes {
		for _, b := range d.nodes {
			if a != b {
				a.faults.Unblock(b.endpoint)
			}
		}
	}
	for _, n := range d.nodes {
		if _, j, _, alive := n.snapshot(); !alive {
			if err := n.start(); err != nil {
				d.viol.addf("final restart %s: %v", n.id, err)
			}
		} else if j != nil && j.Failed() != nil {
			n.kill()
			if err := n.start(); err != nil {
				d.viol.addf("final restart %s: %v", n.id, err)
			}
		}
	}
}

// quiesce waits until one stable leader exists and every node has
// applied its whole log.
func (d *soakDriver) quiesce(timeout time.Duration) (*trader.Trader, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		l := d.leader()
		if l == nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		ltr, _, _, _ := l.snapshot()
		if ltr == nil {
			continue
		}
		target := ltr.Status()
		settled := true
		for _, n := range d.nodes {
			tr, _, _, alive := n.snapshot()
			if !alive || tr == nil {
				settled = false
				break
			}
			if n == l {
				continue
			}
			st := tr.Status()
			if st.Role != trader.RoleFollower || st.Epoch != target.Epoch || st.Applied != target.LastSeq {
				settled = false
				break
			}
		}
		if settled {
			fmt.Fprintf(d.w, "quiesced: leader %s, epoch %d, %d records\n", l.id, target.Epoch, target.LastSeq)
			return ltr, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("cluster did not settle within %v", timeout)
}

// verifyFinal checks the post-quiesce invariants: zero lost
// acknowledged exports and byte-identical import results everywhere.
func (d *soakDriver) verifyFinal(leader *trader.Trader, acked []ackedExport, viol *soakViolations) {
	ctx := context.Background()
	want, err := soakCanonicalOffers(ctx, leader)
	if err != nil {
		viol.addf("final leader import: %v", err)
		return
	}
	have := map[string]bool{}
	offers, _ := leader.Import(ctx, trader.ImportRequest{Type: soakServiceType})
	for _, o := range offers {
		have[o.ID] = true
	}
	lost := 0
	for _, a := range acked {
		if !have[a.id] {
			lost++
			if lost <= 5 {
				viol.addf("acknowledged export %s (serial %d) lost", a.id, a.serial)
			}
		}
	}
	if lost > 5 {
		viol.addf("... and %d more lost acknowledged exports", lost-5)
	}
	for _, n := range d.nodes {
		tr, _, _, alive := n.snapshot()
		if !alive || tr == nil || tr == leader {
			continue
		}
		got, err := soakCanonicalOffers(ctx, tr)
		if err != nil {
			viol.addf("node %s final import: %v", n.id, err)
			continue
		}
		if string(got) != string(want) {
			viol.addf("node %s diverges from the leader after quiesce (%d vs %d bytes)",
				n.id, len(got), len(want))
		}
	}
	fmt.Fprintf(d.w, "final check: %d offers on the leader, %d acked exports verified, replicas byte-identical\n",
		len(offers), len(acked))
}

// soakCanonicalOffers renders a trader's full import result in
// canonical journal-record form, sorted by offer ID — byte equality
// here is the convergence criterion.
func soakCanonicalOffers(ctx context.Context, tr *trader.Trader) ([]byte, error) {
	offers, err := tr.Import(ctx, trader.ImportRequest{Type: soakServiceType})
	if err != nil {
		return nil, err
	}
	recs := make([]trader.OfferRecord, len(offers))
	for i, o := range offers {
		recs[i] = o.Record()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return json.Marshal(recs)
}

// soakEndpoints reserves n listen ports up front: every member's
// -cluster view must name the others before any of them is up, and a
// restarted node must come back on the same address.
func soakEndpoints(n int) ([]string, []ref.ServiceRef) {
	endpoints := make([]string, n)
	refs := make([]ref.ServiceRef, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		listeners[i] = l
		endpoints[i] = fmt.Sprintf("tcp:127.0.0.1:%d", l.Addr().(*net.TCPAddr).Port)
		refs[i] = ref.New(endpoints[i], trader.ServiceName)
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	return endpoints, refs
}

// soakTempDir hosts the per-node data directories for one run.
func soakTempDir() string {
	soakDirOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cosm-soak-*")
		if err != nil {
			panic(err)
		}
		soakDir = dir
	})
	return soakDir
}

var (
	soakDirOnce sync.Once
	soakDir     string
)

func soakKeys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
