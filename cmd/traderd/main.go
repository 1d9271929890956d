// Command traderd runs an ODP trader daemon: the trading function of
// Fig. 1 as a network service.
//
// Usage:
//
//	traderd -listen tcp:127.0.0.1:7001 -id hamburg \
//	        -type carrental.sidl -link munich=cosm://tcp:10.0.0.2:7001/cosm.trader
//
// Service types can be preloaded from SIDL files carrying a
// COSM_TraderExport module (-type, repeatable); more types can be
// defined at run time through the management interface. Federation
// partners are linked with -link name=ref (repeatable; a bare ref gets
// a generated name) and can be managed at run time with `cosmcli
// links`. With -gossip-every the trader periodically exchanges offer
// summaries with its links, so federated imports are routed only to
// peers that plausibly hold the requested type.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/daemon"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
)

// replSyncTimeout bounds how long a mutation waits for its -repl-sync
// follower acknowledgements before failing.
const replSyncTimeout = 5 * time.Second

type stringList []string

func (l *stringList) String() string { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(s string) error {
	*l = append(*l, s)
	return nil
}

func main() { daemon.Main("traderd", run) }

// run starts the daemon and blocks until sig delivers or closes.
func run(args []string, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("traderd", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "tcp:127.0.0.1:7001", "endpoint to serve on (tcp:host:port or loop:name)")
		id        = fs.String("id", "trader-1", "federation identity (unique per federation)")
		ccSize    = fs.Int("constraint-cache", 256, "compiled-constraint cache capacity (0 disables the cache)")
		follow    = fs.String("follow", "", "leader trader reference to follow as a read replica (cosm://endpoint/service)")
		promote   = fs.Bool("promote", false, "take leadership at boot, fencing the previous leader (see -epoch)")
		epoch     = fs.Uint64("epoch", 0, "fencing epoch for -promote (default: one past the recovered epoch)")
		replSync  = fs.Int("repl-sync", 0, "followers that must acknowledge each mutation before it returns (0 = asynchronous)")
		autoFail  = fs.Bool("auto-failover", false, "detect a dead leader and elect a replacement (needs -cluster and -data-dir)")
		electTO   = fs.Duration("election-timeout", 2*time.Second, "failure-suspicion and election-round timeout for -auto-failover")
		gossip    = fs.Duration("gossip-every", 0, "offer-summary gossip interval for federation links (0 disables gossip)")
		typeFiles stringList
		links     stringList
		cluster   stringList
	)
	fs.Var(&typeFiles, "type", "SIDL file with a COSM_TraderExport module to preload as a service type (repeatable)")
	fs.Var(&links, "link", "partner trader link name=cosm://endpoint/service (repeatable; bare refs get a generated name)")
	fs.Var(&cluster, "cluster", "another member of this replication cluster, cosm://endpoint/service (repeatable; quorum counts all members)")
	df := daemon.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Timeline events carry the trader's federation identity, so a
	// merged cluster timeline (`cosmcli events`) attributes each entry.
	df.NodeName = *id
	if *autoFail {
		if len(cluster) == 0 {
			return errors.New("-auto-failover needs at least one -cluster peer")
		}
		if df.DataDir == "" {
			return errors.New("-auto-failover needs -data-dir (elections journal the fencing epoch)")
		}
	}

	repo := typemgr.NewRepo()
	for _, file := range typeFiles {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		sid, err := sidl.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		st, err := typemgr.FromSID(sid)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		// Retaining the SIDL source makes preloaded types part of journal
		// snapshots, so a recovered trader does not depend on the -type
		// flags it was originally booted with.
		if err := repo.DefineWithSource(st, string(src)); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		log.Printf("preloaded service type %s (%d attributes)", st.Name, len(st.Attrs))
	}

	logger := obs.NewLogger(os.Stderr, "traderd")
	topts := []trader.Option{
		trader.WithLogger(logger.With("trader")),
		trader.WithMetrics(df.Registry),
		trader.WithEvents(df.Events()),
		trader.WithConstraintCacheSize(*ccSize),
	}
	if *replSync > 0 {
		topts = append(topts, trader.WithReplSync(*replSync, replSyncTimeout))
	}
	tr := trader.New(*id, repo, topts...)

	// Recovery happens before the node listens: by the time the first
	// connection is accepted the offer store is the pre-crash one.
	j, err := df.OpenJournal()
	if err != nil {
		return err
	}
	defer j.Close()
	if j != nil {
		start := time.Now()
		// Recover ends with a compaction, which is what keeps the -type
		// preloads above: they are never journalled as records.
		if err := j.Recover(tr); err != nil {
			return err
		}
		// The durable vote ledger lives next to the journal: a voter
		// restarting inside an election round re-adopts its pledge
		// instead of double-voting.
		vl, err := trader.OpenVoteLog(df.DataDir)
		if err != nil {
			return err
		}
		defer vl.Close()
		tr.SetVoteLog(vl)
		log.Printf("recovered %d offers, %d types from %s in %v",
			tr.OfferCount(), tr.Types().Len(), df.DataDir, time.Since(start))
	}

	// Replication role, before the first connection is accepted: a
	// follower rejects mutations from the very first request, and a
	// promoted leader journals its new epoch before anyone can pull it.
	if *follow != "" {
		tr.SetFollower(*follow)
		log.Printf("following leader at %s", *follow)
	}
	if *promote {
		e := *epoch
		if e <= tr.Epoch() {
			e = tr.Epoch() + 1
		}
		if err := tr.Promote(e); err != nil {
			return err
		}
		log.Printf("promoted to leader at epoch %d", e)
	}

	svc, err := trader.NewService(tr)
	if err != nil {
		return err
	}
	node, stop, err := df.Serve(*listen, logger, j, map[string]*cosm.Service{trader.ServiceName: svc})
	if err != nil {
		return err
	}
	defer stop()
	self := node.MustRefFor(trader.ServiceName)

	ctx := context.Background()
	if *follow != "" || *autoFail {
		// One cell member either way: with -cluster peers it detects a
		// dead leader and stands for election, without them it is a plain
		// read replica. The leader is dialled lazily — it changes at run
		// time under auto-failover, and even a fixed -follow target may
		// simply not be up yet.
		cfg := trader.CellConfig{SelfRef: self.String(), Dial: trader.PoolDial(node.Pool())}
		if *autoFail {
			cfg.Peers = cluster
			cfg.ElectionTimeout = *electTO
			cfg.OnPromote = func(e uint64) { log.Printf("auto-promoted to leader at epoch %d", e) }
			log.Printf("auto-failover armed: cluster of %d, election timeout %v", len(cluster)+1, *electTO)
		}
		defer tr.JoinCell(cfg).Close()
	}
	// Offer liveness: expired leases are reclaimed and dead providers'
	// offers suspected, then withdrawn. A follower's sweeps do nothing.
	sw := trader.NewSweeper(tr, node.Pool())
	sw.Start()
	defer sw.Close()
	// The link dialer lets the wire-level LinkAdd operation (cosmcli
	// links add) resolve peer references over this node's pool.
	tr.SetLinkDialer(func(ctx context.Context, peer ref.ServiceRef) (trader.Federate, error) {
		return trader.DialTrader(ctx, node.Pool(), peer)
	})
	for i, link := range links {
		name, rtext, ok := strings.Cut(link, "=")
		if !ok || strings.Contains(name, "://") {
			// Bare reference: keep the legacy -link form working under a
			// generated registry name.
			name, rtext = fmt.Sprintf("link-%d", i+1), link
		}
		r, err := ref.Parse(rtext)
		if err != nil {
			return fmt.Errorf("-link %s: %w", link, err)
		}
		partner, err := trader.DialTrader(ctx, node.Pool(), r)
		if err != nil {
			return fmt.Errorf("-link %s: %w", link, err)
		}
		if err := tr.AddLink(name, partner); err != nil {
			return fmt.Errorf("-link %s: %w", link, err)
		}
		log.Printf("federated with %s as %q", r, name)
	}
	if *gossip > 0 {
		g := trader.NewGossiper(tr, *gossip, 0)
		g.Start()
		defer g.Close()
		log.Printf("gossiping offer summaries every %v", *gossip)
	}

	log.Printf("trader %q serving at %s", *id, self)
	s := <-sig
	log.Printf("received %v, draining", s)
	// The trader registers nothing at other services; its exporters own
	// their offers. Draining lets in-flight imports/exports complete.
	return df.Drain(node, nil, log.Printf)
}
