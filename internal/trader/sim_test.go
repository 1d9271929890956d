package trader

// The cell simulation: a replicated trader cell run single-threaded by
// a seeded scheduler that owns the clock, so a run is a function of its
// seed and a failing seed replays exactly.
//
// Members are real Traders on real journals (FsyncNever: an in-process
// crash keeps the page cache; disk faults inject at write), joined by
// JoinCell as traderd joins them. Three things are simulated:
//
//   - time: each member's now and pause — the trader's one clock seam —
//     read and wait on the virtual clock, plus a per-member skew;
//   - the network: CellDial hands out simPeers, which call the peer
//     trader in-process through a directed partition table (a cut
//     request never arrives, a cut reply is lost after the call took
//     effect) and model the ReplPull long-poll by parking;
//   - concurrency: one baton. Exactly one goroutine — a cell loop, the
//     workload or the fault driver — runs at a time; a parked one wakes
//     at its deadline or once its wake condition (the monitor's early
//     channel, a replication ack, a leader append) holds, and when none
//     is ready the clock jumps to the earliest deadline. The fan-out of
//     a vote or status round runs while its loop holds the baton and
//     waits for it; each call touches one member and the replies are
//     collected by peer position.
//
// A seed draws a 3- or 5-member cell and a schedule of every fault kind
// under mutationGen's workload, issued at the member claiming
// leadership. At every baton pass: no two members lead one epoch, and
// no member's epoch moves backwards within an incarnation. At every
// election: no epoch is won twice, and no member's vote at an epoch goes
// to two candidates, across restarts. After healing: every acknowledged
// lease-free export no withdrawal named is on the leader, and every
// member — and a trader recovered from the leader's data dir — holds
// the leader's market state.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosm/internal/journal"
	"cosm/internal/obs"
	"cosm/internal/typemgr"
)

const (
	simTimeout  = 300 * time.Millisecond // election timeout
	simSyncWait = 1500 * time.Millisecond
)

var simEpoch = time.Unix(1_000_000, 0)

// simRegressions are seeds the sweep once failed on, replayed first on
// every run, each beside the rule it pins (DESIGN.md §9). To replay a
// failing seed, add it here and run
// go test -run TestCellSim ./internal/trader.
var simRegressions = []int64{
	1,    // a snapshot install replaces the types and the ID counter too
	14,   // a deposed leader resyncs from the winner's snapshot
	18,   // votes compare logs by tail epoch, then by the journal's tail
	34,   // a follower resyncs when its leader's epoch changes
	56,   // a member never chases a leader hint naming itself
	140,  // a granted vote fences the epochs below it
	2107, // a write waiting for acks fails once its epoch moved
}

// sched is the baton and the virtual clock.
type sched struct {
	now    atomic.Int64 // UnixNano
	mu     sync.Mutex
	seq    uint64
	parked []*waiter
	active int // goroutines holding the baton or not yet parked
	stuck  int // passes at the current instant
	onPass func()
}

type waiter struct {
	at   int64
	seq  uint64
	wake func() bool
	ch   chan struct{}
}

func (s *sched) clock() time.Time { return time.Unix(0, s.now.Load()) }

// park hands the baton on and blocks until d has passed or wake holds;
// a cancelled ctx releases the goroutine without the baton (the
// canceller holds it).
func (s *sched) park(ctx context.Context, d time.Duration, wake func() bool) {
	if ctx.Err() != nil {
		return
	}
	s.mu.Lock()
	s.seq++
	w := &waiter{at: s.now.Load() + int64(d), seq: s.seq, wake: wake, ch: make(chan struct{})}
	s.parked = append(s.parked, w)
	s.release()
	s.mu.Unlock()
	select {
	case <-w.ch:
	case <-ctx.Done():
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, p := range s.parked {
			if p == w {
				s.parked = append(s.parked[:i], s.parked[i+1:]...)
				return
			}
		}
		panic("sim: a cancelled goroutine held the baton")
	}
}

// exit releases the baton for good.
func (s *sched) exit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release()
}

// spawn runs start, which launches n goroutines, and returns once all n
// have parked: newcomers never run alongside the caller.
func (s *sched) spawn(n int, start func()) {
	s.mu.Lock()
	s.active += n
	s.mu.Unlock()
	start()
	s.park(context.Background(), 0, nil)
}

// release drops one holder; the last one out passes the baton to the
// first ready waiter in (deadline, park order), or moves the clock to
// the earliest deadline. Only the chosen waiter's wake is consumed.
func (s *sched) release() {
	if s.active--; s.active > 0 || len(s.parked) == 0 {
		return
	}
	s.onPass()
	sort.Slice(s.parked, func(i, j int) bool {
		a, b := s.parked[i], s.parked[j]
		return a.at < b.at || a.at == b.at && a.seq < b.seq
	})
	pick, now := 0, s.now.Load()
	for i, w := range s.parked {
		if w.at <= now || w.wake != nil && w.wake() {
			pick = i
			break
		}
		if i == len(s.parked)-1 {
			s.now.Store(s.parked[0].at)
			s.stuck = 0
		}
	}
	if s.stuck++; s.stuck > 100_000 {
		panic(fmt.Sprintf("sim: livelock at %v", s.clock().Sub(simEpoch)))
	}
	w := s.parked[pick]
	s.parked = append(s.parked[:pick], s.parked[pick+1:]...)
	s.active++
	close(w.ch)
}

// chanWake polls a channel without blocking, as pause's select would
// receive from it.
func chanWake(ch <-chan struct{}) func() bool {
	if ch == nil {
		return nil
	}
	return func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
}

// simMember is one member's identity, which survives its incarnations.
type simMember struct {
	idx     int
	id, ref string
	dir     string
	events  *obs.EventLog
	skew    time.Duration

	alive    bool
	inc      int
	tr       *Trader
	j        *journal.Journal
	votes    *VoteLog
	inj      *journal.FaultInjector
	cell     *Cell
	follower bool // the role at the last kill, which a restart restores
	hint     string
}

type cellSim struct {
	t       *testing.T
	s       sched
	rng     *rand.Rand // the fault schedule
	members []*simMember
	cut     map[[2]int]bool // from cannot reach to
	quorum  int
	gen     *mutationGen

	stopWork, workDone bool
	elected            map[uint64]string
	epochs             map[[2]int]uint64 // (member, incarnation) -> last epoch

	mu         sync.Mutex // vote rounds record from their fan-out
	log        strings.Builder
	votes      map[[2]uint64]string // (member, epoch) -> the candidate its vote went to
	violations []string
}

// newCellSim boots an n-member cell in dir: n0 leads at epoch 1, the
// others follow it. The caller is the driver and holds the baton.
func newCellSim(t *testing.T, dir string, seed int64, n int) *cellSim {
	c := &cellSim{t: t, rng: rand.New(rand.NewSource(seed)), cut: map[[2]int]bool{}, quorum: n/2 + 1,
		elected: map[uint64]string{1: "n0"}, epochs: map[[2]int]uint64{}, votes: map[[2]uint64]string{}}
	c.s.now.Store(simEpoch.UnixNano())
	c.s.active = 1
	c.s.onPass = c.checkInstant
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		c.members = append(c.members, &simMember{idx: i, id: id, ref: "cosm://" + id, dir: filepath.Join(dir, id),
			events: obs.NewEventLog(id, 256).WithClock(c.s.clock), follower: i > 0, hint: "cosm://n0"})
	}
	for _, m := range c.members {
		c.start(m)
	}
	if err := c.members[0].tr.Promote(1); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *cellSim) logf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(&c.log, "%8.3fs "+format+"\n", append([]any{c.s.clock().Sub(simEpoch).Seconds()}, args...)...)
}

func (c *cellSim) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.mu.Lock()
	fresh := !slices.Contains(c.violations, msg)
	if fresh {
		c.violations = append(c.violations, msg)
	}
	c.mu.Unlock()
	if fresh {
		c.logf("VIOLATION %s", msg)
	}
}

// start boots one incarnation of m on its data dir and joins the cell.
func (c *cellSim) start(m *simMember) {
	m.inc++
	m.inj = journal.NewFaultInjector()
	j, err := journal.Open(m.dir, journal.Options{Fsync: journal.FsyncNever, FaultHook: m.inj.Hook()})
	if err != nil {
		c.t.Fatal(err)
	}
	tr := New(m.id, typemgr.NewRepo(), WithReplSync(c.quorum-1, simSyncWait), WithEvents(m.events),
		func(t *Trader) {
			t.now = func() time.Time { return c.s.clock().Add(m.skew) }
			t.pause = func(ctx context.Context, d time.Duration, wake <-chan struct{}) { c.s.park(ctx, d, chanWake(wake)) }
		})
	if err := j.Recover(tr); err != nil {
		c.t.Fatal(err)
	}
	vl, err := OpenVoteLog(m.dir)
	if err != nil {
		c.t.Fatal(err)
	}
	tr.SetVoteLog(vl)
	if m.follower {
		tr.SetFollower(m.hint)
	}
	m.tr, m.j, m.votes, m.alive = tr, j, vl, true
	var peers []string
	for _, o := range c.members {
		if o != m {
			peers = append(peers, o.ref)
		}
	}
	c.logf("%s up: incarnation %d, %s at epoch %d", m.id, m.inc, tr.Role(), tr.Epoch())
	c.s.spawn(2, func() {
		m.cell = tr.JoinCell(CellConfig{SelfRef: m.ref, Peers: peers, Dial: c.dial(m), ElectionTimeout: simTimeout,
			OnPromote: func(epoch uint64) { c.won(m, epoch) }})
	})
}

// kill crashes m's incarnation: loops stopped, files closed, no drain.
func (c *cellSim) kill(m *simMember) {
	m.follower, m.hint = m.tr.Role() == RoleFollower, m.tr.LeaderHint()
	m.cell.Close()
	m.j.Close()
	m.votes.Close()
	m.alive = false
	c.logf("%s killed", m.id)
}

func (c *cellSim) close() {
	for _, m := range c.members {
		if m.alive {
			c.kill(m)
		}
	}
}

// await lets virtual time pass until done holds or d has passed, and
// reports whether done held; a nil done just lets d pass.
func (c *cellSim) await(d time.Duration, done func() bool) bool {
	deadline := c.s.now.Load() + int64(d)
	for done == nil || !done() {
		left := deadline - c.s.now.Load()
		if left <= 0 {
			return done == nil
		}
		c.s.park(context.Background(), time.Duration(left), done)
	}
	return true
}

// leader is the live member claiming leadership at the highest epoch.
func (c *cellSim) leader() *simMember {
	var best *simMember
	for _, m := range c.members {
		if m.alive && m.tr.Role() == RoleLeader && (best == nil || m.tr.Epoch() > best.tr.Epoch()) {
			best = m
		}
	}
	return best
}

// checkInstant runs at every baton pass.
func (c *cellSim) checkInstant() {
	leaders := map[uint64]string{}
	for _, m := range c.members {
		if !m.alive {
			continue
		}
		st := m.tr.Status()
		key := [2]int{m.idx, m.inc}
		if last, ok := c.epochs[key]; ok && st.Epoch < last {
			c.violate("%s's epoch moved backwards: %d -> %d", m.id, last, st.Epoch)
		}
		c.epochs[key] = st.Epoch
		if st.Role != RoleLeader {
			continue
		}
		if other, ok := leaders[st.Epoch]; ok {
			c.violate("split brain: %s and %s both lead epoch %d", other, m.id, st.Epoch)
		}
		leaders[st.Epoch] = m.id
	}
}

// won observes an election win (CellConfig.OnPromote).
func (c *cellSim) won(m *simMember, epoch uint64) {
	if who, ok := c.elected[epoch]; ok && who != m.id {
		c.violate("double election: %s and %s both won epoch %d", who, m.id, epoch)
	}
	c.elected[epoch] = m.id
	c.logf("%s won epoch %d", m.id, epoch)
}

// pledge records that m's vote at epoch went to candidate.
func (c *cellSim) pledge(m *simMember, epoch uint64, candidate string) {
	k := [2]uint64{uint64(m.idx), epoch}
	c.mu.Lock()
	prev, ok := c.votes[k]
	if !ok {
		c.votes[k] = candidate
	}
	c.mu.Unlock()
	if ok && prev != candidate {
		c.violate("%s voted twice at epoch %d: for %s and for %s", m.id, epoch, prev, candidate)
	}
}

func (c *cellSim) dial(from *simMember) CellDial {
	return func(_ context.Context, ref string) (CellPeer, error) {
		for _, m := range c.members {
			if m.ref == ref {
				return simPeer{c, from, m}, nil
			}
		}
		return nil, fmt.Errorf("dial %s: unknown member", ref)
	}
}

// simPeer is one member as another reaches it.
type simPeer struct {
	c        *cellSim
	from, to *simMember
}

// reach is a call's request half: the live trader it arrives at.
func (p simPeer) reach() (*Trader, error) {
	switch {
	case !p.to.alive:
		return nil, fmt.Errorf("dial %s: connection refused", p.to.ref)
	case p.c.cut[[2]int{p.from.idx, p.to.idx}]:
		return nil, fmt.Errorf("%s unreachable", p.to.ref)
	}
	return p.to.tr, nil
}

// lost is a call's reply half: a reply on a cut return path is lost.
func (p simPeer) lost() error {
	if p.c.cut[[2]int{p.to.idx, p.from.idx}] {
		return fmt.Errorf("%s: reply lost", p.to.ref)
	}
	return nil
}

func (p simPeer) ReplStatus(context.Context) (ReplStatus, error) {
	tr, err := p.reach()
	if err != nil {
		return ReplStatus{}, err
	}
	return tr.Status(), p.lost()
}

func (p simPeer) RequestVote(ctx context.Context, candidateID string, newEpoch, applied, tailEpoch uint64) (Vote, error) {
	p.c.pledge(p.from, newEpoch, candidateID) // standing, the candidate voted for itself
	tr, err := p.reach()
	if err != nil {
		return Vote{}, err
	}
	v, _ := tr.RequestVote(ctx, candidateID, newEpoch, applied, tailEpoch)
	if v.Granted {
		p.c.pledge(p.to, newEpoch, candidateID)
	}
	return v, p.lost()
}

func (p simPeer) ReplPull(ctx context.Context, followerID string, epoch, afterSeq uint64, max int, wait time.Duration) (*ReplBatch, error) {
	tr, err := p.reach()
	if err != nil {
		return nil, err
	}
	b, err := tr.PullBatch(ctx, followerID, epoch, afterSeq, max, 0)
	if err == nil && wait > 0 && b.LastSeq <= afterSeq {
		// The long-poll, after the checks and the ack as in PullBatch:
		// park until the leader appends past afterSeq, its incarnation
		// ends, or wait runs out, then read.
		to, inc := p.to, p.to.inc
		p.c.s.park(ctx, wait, func() bool { return to.inc != inc || !to.alive || to.j.Stats().LastSeq > afterSeq })
		switch {
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case to.inc != inc || !to.alive:
			return nil, fmt.Errorf("%s: connection reset", to.ref)
		}
		b, err = tr.PullBatch(ctx, followerID, epoch, afterSeq, max, 0)
	}
	if err == nil {
		err = p.lost()
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// work is the workload goroutine: mutationGen's steps, each at the
// member claiming leadership, as a client following leader hints finds
// it.
func (c *cellSim) work() {
	defer c.s.exit()
	defer func() { c.workDone = true }()
	bg, first := context.Background(), true
	for !c.stopWork {
		c.s.park(bg, time.Duration(10+c.gen.r.Intn(90))*time.Millisecond, nil)
		m := c.leader()
		if m == nil {
			continue
		}
		desc, err := c.gen.step(m.tr, first, func(d time.Duration) { c.s.park(bg, d, nil) }, m.j.Compact)
		if desc != "" {
			first = false
			c.logf("%s: %s: %v", m.id, desc, err)
		}
	}
}

// The fault kinds, each one round of a seed's schedule.
var simFaults = []struct {
	name string
	run  func(c *cellSim)
}{
	{"leader kill", func(c *cellSim) {
		if l := c.leader(); l != nil {
			c.kill(l)
			c.awaitLeaderPast(l)
			c.start(l)
		}
	}},
	{"leader isolation", func(c *cellSim) {
		if l := c.leader(); l != nil {
			c.logf("isolate %s", l.id)
			c.sever([]int{l.idx}, true)
			c.awaitLeaderPast(l)
			c.sever([]int{l.idx}, false)
		}
	}},
	{"symmetric minority partition", func(c *cellSim) {
		minority := c.rng.Perm(len(c.members))[:len(c.members)/2]
		c.logf("partition %v from the rest", minority)
		c.sever(minority, true)
		c.await(4*simTimeout, nil)
		c.sever(minority, false)
	}},
	{"asymmetric partition", func(c *cellSim) {
		ab := c.rng.Perm(len(c.members))[:2]
		c.logf("n%d cannot reach n%d", ab[0], ab[1])
		c.cut[[2]int{ab[0], ab[1]}] = true
		c.await(4*simTimeout, nil)
		c.cut[[2]int{ab[0], ab[1]}] = false
	}},
	{"journal fail-stop", func(c *cellSim) {
		v := c.pick(func(m *simMember) bool { return m.j.Failed() == nil })
		if v == nil {
			return
		}
		wasLeader := c.leader() == v
		c.logf("%s's disk tears its next write", v.id)
		v.inj.FailNow(journal.FaultWrite, journal.ErrTornWrite)
		if c.await(10*time.Second, func() bool { return v.j.Failed() != nil }) && wasLeader {
			c.awaitLeaderPast(v)
		}
		c.kill(v) // and replace the disk
		c.start(v)
	}},
	{"follower churn", func(c *cellSim) {
		l := c.leader()
		if f := c.pick(func(m *simMember) bool { return m != l }); f != nil {
			c.kill(f)
			c.await(2*simTimeout, nil)
			c.start(f)
		}
	}},
	{"torn vote ledger", func(c *cellSim) {
		m := c.pick(func(*simMember) bool { return true })
		c.kill(m)
		// The crash interrupted a pledge: half a frame header ends the
		// ledger's last segment.
		segs, _ := filepath.Glob(filepath.Join(m.dir, "votes", "wal-*.log"))
		f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write([]byte{40, 0, 0, 0, 7, 0})
			f.Close()
		}
		if err != nil {
			c.t.Fatal(err)
		}
		c.logf("%s's vote ledger torn", m.id)
		c.await(2*simTimeout, nil)
		c.start(m)
	}},
	{"clock step", func(c *cellSim) {
		m := c.pick(func(*simMember) bool { return true })
		d := time.Duration(500+c.rng.Intn(9500)) * time.Millisecond
		if c.rng.Intn(2) == 0 {
			d = -d
		}
		m.skew += d
		c.logf("%s's clock steps %v", m.id, d)
	}},
}

// pick draws a live member satisfying ok, nil when none does.
func (c *cellSim) pick(ok func(*simMember) bool) *simMember {
	var live []*simMember
	for _, m := range c.members {
		if m.alive && ok(m) {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[c.rng.Intn(len(live))]
}

// sever cuts (or restores) every link between group and the rest.
func (c *cellSim) sever(group []int, cut bool) {
	for a := range c.members {
		for b := range c.members {
			if slices.Contains(group, a) != slices.Contains(group, b) {
				c.cut[[2]int{a, b}] = cut
			}
		}
	}
}

func (c *cellSim) awaitLeaderPast(old *simMember) {
	if !c.await(15*time.Second, func() bool { l := c.leader(); return l != nil && l != old }) {
		c.violate("no leader elected past %s within 15s", old.id)
	}
}

// settled holds once one leader leads and every other member follows it
// at its epoch with its whole log applied.
func (c *cellSim) settled() bool {
	l := c.leader()
	if l == nil {
		return false
	}
	st := l.tr.Status()
	for _, m := range c.members {
		if m == l {
			continue
		}
		if !m.alive {
			return false
		}
		if f := m.tr.Status(); f.Role != RoleFollower || f.Epoch != st.Epoch || f.Applied != st.LastSeq {
			return false
		}
	}
	return true
}

// heal clears every partition and clock step, replaces failed disks,
// restarts the dead, stops the workload and lets the cell settle.
func (c *cellSim) heal() {
	c.logf("heal")
	clear(c.cut)
	for _, m := range c.members {
		m.skew = 0
		if m.alive && m.j.Failed() != nil {
			c.kill(m)
		}
		if !m.alive {
			c.start(m)
		}
	}
	c.stopWork = true
	if !c.await(time.Minute, func() bool { return c.workDone }) {
		c.violate("the workload did not stop")
	}
	if !c.await(30*time.Second, c.settled) {
		c.violate("no settled leader 30s after healing")
	}
}

// verify checks the healed cell against the workload's acknowledgements
// and the leader.
func (c *cellSim) verify() {
	l := c.leader()
	if l == nil {
		return
	}
	acked := 0
	for _, id := range c.gen.ids {
		if c.gen.leased[id] || c.gen.named[id] {
			continue
		}
		acked++
		if _, ok := l.tr.core.Lookup(id); !ok {
			c.violate("acknowledged export %s lost", id)
		}
	}
	want := marketState(c.t, l.tr, genImports)
	for _, m := range c.members {
		if m == l {
			continue
		}
		if got := marketState(c.t, m.tr, genImports); got != want {
			c.violate("%s holds another state than leader %s:\n%s\nleader:\n%s", m.id, l.id, got, want)
		}
	}
	if got := marketState(c.t, recoverTrader(c.t, l.id, l.dir, c.s.clock), genImports); got != want {
		c.violate("%s's data dir recovers another state:\n%s\nleader:\n%s", l.id, got, want)
	}
	c.logf("verified %d acknowledged lease-free exports on leader %s at epoch %d", acked, l.id, l.tr.Epoch())
}

// timeline merges the members' event logs into one.
func (c *cellSim) timeline() string {
	var logs [][]obs.Event
	for _, m := range c.members {
		logs = append(logs, m.events.Events())
	}
	var b strings.Builder
	for _, e := range obs.MergeEvents(logs...) {
		fmt.Fprintf(&b, "%8.3fs %s %s", e.Time.Sub(simEpoch).Seconds(), e.Node, e.Kind)
		keys := make([]string, 0, len(e.Attr))
		for k := range e.Attr {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, e.Attr[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// simulate runs one seed: an odd seed a 3-member cell, an even one 5,
// each fault kind once in a seeded order, then heal and verify. It
// returns the step log, the merged event timeline appended.
func simulate(t *testing.T, dir string, seed int64) (log string, violations []string) {
	c := newCellSim(t, dir, seed, 5-2*int(seed&1))
	defer c.close()
	c.gen = newMutationGen(^seed, 600*time.Millisecond)
	c.s.spawn(1, func() { go c.work() })
	for _, k := range c.rng.Perm(len(simFaults)) {
		c.await(2*simTimeout, nil)
		c.logf("fault: %s", simFaults[k].name)
		simFaults[k].run(c)
	}
	c.heal()
	c.verify()
	return c.log.String() + "timeline:\n" + c.timeline(), c.violations
}

// TestCellSim replays the regression seeds, then sweeps seeds 1, 2, …
// for a constant time box (at least two, so both cell sizes run).
func TestCellSim(t *testing.T) {
	box := 5 * time.Second
	if testing.Short() {
		box = time.Second
	}
	dir := t.TempDir()
	run := func(seed int64) {
		sub := filepath.Join(dir, strconv.FormatInt(seed, 10))
		defer os.RemoveAll(sub)
		if log, vs := simulate(t, sub, seed); len(vs) > 0 {
			t.Errorf("seed %d: %s\nadd it to simRegressions to replay it; step log:\n%s", seed, strings.Join(vs, "\n"), log)
		}
	}
	for _, seed := range simRegressions {
		run(seed)
	}
	start, seeds := time.Now(), int64(0)
	for !t.Failed() && (seeds < 2 || time.Since(start) < box) {
		seeds++
		run(seeds)
	}
	t.Logf("%d seeds in %v", seeds, time.Since(start).Round(time.Millisecond))
}

// TestCellSimReplays: a seed is its run — two runs give byte-identical
// step logs.
func TestCellSimReplays(t *testing.T) {
	a, _ := simulate(t, filepath.Join(t.TempDir(), "a"), 4)
	b, _ := simulate(t, filepath.Join(t.TempDir(), "b"), 4)
	if a != b {
		t.Fatalf("seed 4 ran two ways:\n%s\n----\n%s", a, b)
	}
}

// TestCellSimLeaderKillTimeline: the merged event timeline of a leader
// kill tells the failover in causal order — suspicion, a candidacy, a
// granted vote and, once the old leader restarts on its old role, its
// rejoin — with the promotion at the new epoch. (A vote round takes no
// virtual time, so the promotion shares its votes' instant, and the
// merge orders one instant's events by node.)
func TestCellSimLeaderKillTimeline(t *testing.T) {
	c := newCellSim(t, t.TempDir(), 1, 3)
	defer c.close()
	old := c.members[0]
	c.await(simTimeout, nil)
	c.kill(old)
	c.awaitLeaderPast(old)
	c.start(old)
	if !c.await(10*time.Second, func() bool { return old.tr.Role() == RoleFollower && old.tr.Epoch() >= 2 }) {
		t.Fatalf("the old leader never rejoined:\n%s", c.log.String())
	}
	out, pos := c.timeline(), 0
	for _, kind := range []string{" suspect", " candidacy", " vote_granted", " demote_rejoin"} {
		i := strings.Index(out[pos:], kind)
		if i < 0 {
			t.Fatalf("timeline lacks %q after offset %d:\n%s", kind, pos, out)
		}
		pos += i + len(kind)
	}
	if !strings.Contains(out, " promote epoch=2") {
		t.Fatalf("timeline lacks the promotion at epoch 2:\n%s", out)
	}
}

// TestCellSimIdleNeverRelocates: a healthy three-member cell left idle
// stays put. An idle pull long-polls the leader; were the poll longer
// than two election timeouts, suspectNow would read the quiet link as a
// wedged loop and each follower would relocate to its own leader.
func TestCellSimIdleNeverRelocates(t *testing.T) {
	c := newCellSim(t, t.TempDir(), 1, 3)
	defer c.close()
	c.await(30*time.Second, nil)
	if tl := c.timeline(); strings.Contains(tl, " suspect") || strings.Contains(tl, " relocate") || c.leader() != c.members[0] {
		t.Fatalf("an idle, healthy cell moved:\n%s", tl)
	}
}

// TestCellSimRetargetsAtRecoveredHint: a member restarted as a follower
// of ref pulls from ref with no further step — the leader hint is the
// one place the pull loop's target lives.
func TestCellSimRetargetsAtRecoveredHint(t *testing.T) {
	c := newCellSim(t, t.TempDir(), 1, 3)
	defer c.close()
	leader, f := c.members[0].tr, c.members[2]
	if err := leader.DefineTypeSIDL(propTypeSIDL("P0", "x")); err != nil {
		t.Fatal(err)
	}
	c.kill(f)
	if _, err := leader.Export("P0", hierRef(1), intProps("x", 1)); err != nil {
		t.Fatal(err)
	}
	c.start(f)
	if !c.await(5*time.Second, func() bool { return f.tr.ReplApplied() == leader.Status().LastSeq }) {
		t.Fatalf("the restarted member never caught up:\n%s", c.log.String())
	}
	if f.cell.srcRef != "cosm://n0" || f.tr.OfferCount() != 1 {
		t.Fatalf("pulling from %q with %d offers, want the hint SetFollower left and the leader's offer", f.cell.srcRef, f.tr.OfferCount())
	}
}
