package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cosm/internal/browser"
	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/journal"
	"cosm/internal/match"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/uiform"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

// ladderCalls is how many timed calls stand behind every ladder row
// (a tenth of it in quick mode),
// and ladderPasses how many visits they are spread over: the rows are
// measured round-robin, a share of their calls per pass, so that a
// neighbour episode on the box hits every row alike instead of
// inflating whichever row happened to be running.
const (
	ladderCalls  = 8000
	ladderPasses = 8
)

// ladderRow is one public function on the canonical request or reply
// shape. fn is timed; before and after run untimed around every call
// (they undo or prepare state, so batch must be 1 when they are set).
// batch calls are timed as one so sub-microsecond rows are not
// dominated by the clock.
type ladderRow struct {
	name          string
	batch         int
	fn            func() error
	before, after func() error

	times []float64 // per-call µs, one entry per batch
}

func (r *ladderRow) pass(calls int) error {
	hook := func(h func() error) error {
		if h == nil {
			return nil
		}
		return h()
	}
	for done := 0; done < calls; done += r.batch {
		if err := hook(r.before); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < r.batch; i++ {
			if err := r.fn(); err != nil {
				return err
			}
		}
		r.times = append(r.times, usOf(time.Since(t0))/float64(r.batch))
		if err := hook(r.after); err != nil {
			return err
		}
	}
	return nil
}

// allocs counts mallocs per call over one uninterrupted run of fn.
// Counts, unlike times, do not drift with the box, so they need no
// spreading — and taken back to back the import cache stays warm, as it
// is in the workload.
func (r *ladderRow) allocs() (float64, error) {
	const calls = 256
	for i := 0; i < 16; i++ { // refresh whatever expired since the last pass
		if err := r.fn(); err != nil {
			return 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		if err := r.fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / calls, nil
}

// measureRows runs every row ladderPasses times round-robin (the first
// pass is a discarded warm-up) and stores each row's median per-call
// time in l, and mallocs per call for rows without hooks.
func measureRows(l ladder, rows []*ladderRow, calls int) error {
	for pass := 0; pass <= ladderPasses; pass++ {
		for _, r := range rows {
			if pass == 1 {
				r.times = r.times[:0]
			}
			if err := r.pass(calls / ladderPasses); err != nil {
				return fmt.Errorf("ladder %s: %w", r.name, err)
			}
		}
	}
	for _, r := range rows {
		l[r.name+"_us"] = median(r.times)
		if r.before != nil || r.after != nil {
			continue
		}
		n, err := r.allocs()
		if err != nil {
			return fmt.Errorf("ladder %s: %w", r.name, err)
		}
		l[r.name+"_allocs"] = n
	}
	return nil
}

// importReqValue builds the Import argument from the trader's SID the
// way any generic client would: by field name, from the type alone.
func importReqValue(sid *sidl.SID, req trader.ImportRequest) (*xcode.Value, error) {
	t := sid.Type("ImportReq_t")
	if t == nil {
		return nil, fmt.Errorf("trader SID has no ImportReq_t")
	}
	v := xcode.Zero(t)
	set := func(name string, fill func(*xcode.Value)) error {
		f, err := v.Field(name)
		if err == nil {
			fill(f)
		}
		return err
	}
	for name, s := range map[string]string{"serviceType": req.Type, "constraint": req.Constraint,
		"policy": req.Policy, "minGrade": req.MinGrade.String()} {
		if err := set(name, func(f *xcode.Value) { f.Str = s }); err != nil {
			return nil, err
		}
	}
	if err := set("max", func(f *xcode.Value) { f.Int = int64(req.Max) }); err != nil {
		return nil, err
	}
	return v, nil
}

// ladder holds the measured rows by metric name; the rows of the wire
// path must add up to the import_wire median (see perLayer).
type ladder map[string]float64

// runLadder measures every ladder row. scratch is a directory of the
// benchmark's own for the journal rows.
func runLadder(ctx context.Context, seed int64, scratch string, calls int) (ladder, error) {
	l := ladder{}
	quiet := cosm.WithNodeLog(func(string, ...any) {})
	var closers []func() error
	defer func() {
		for _, c := range closers {
			_ = c() // ladder teardown
		}
	}()
	listen := func(endpoint, name string, svc *cosm.Service) (*cosm.Node, error) {
		node := cosm.NewNode(quiet)
		closers = append(closers, node.Close)
		if err := node.Host(name, svc); err != nil {
			return nil, err
		}
		_, err := node.ListenAndServe(endpoint)
		return node, err
	}
	loopName := func(what string) string { return fmt.Sprintf("loop:cosmbench-ladder-%s-%d", what, os.Getpid()) }
	var rows []*ladderRow
	row := func(name string, batch int, fn func() error) *ladderRow {
		r := &ladderRow{name: name, batch: batch, fn: fn}
		rows = append(rows, r)
		return r
	}

	// The canonical trader, hosted as import_wire hosts it (TCP) and
	// once more on loop:, and a real reply fetched through the stack.
	wl := importWire(seed)
	fixture, err := wl.build(&env{}, 0)
	if err != nil {
		return nil, err
	}
	wf := fixture.(*wireFixture)
	closers = append(closers, func() error { wf.close(); return nil })
	pool := wire.NewPool()
	closers = append(closers, pool.Close)
	conn, err := cosm.Bind(ctx, pool, wf.node.MustRefFor(trader.ServiceName))
	if err != nil {
		return nil, err
	}
	sid := conn.SID()
	canonical := wf.queries[0].req
	reqV, err := importReqValue(sid, canonical)
	if err != nil {
		return nil, err
	}
	res, err := conn.Invoke(ctx, "Import", reqV)
	if err != nil {
		return nil, err
	}
	reply := res.Value
	if len(reply.Elems) != canonical.Max {
		return nil, fmt.Errorf("canonical reply has %d offers, want %d", len(reply.Elems), canonical.Max)
	}
	reqBody, replyBody := xcode.Marshal(reqV), xcode.Marshal(reply)

	// xcode: the reply-shaped value, both directions.
	var buf []byte
	row("xcode.marshal", 16, func() error { buf = xcode.AppendMarshal(buf[:0], reply); return nil })
	row("xcode.unmarshal", 16, func() error { _, err := xcode.Unmarshal(reply.Type, replyBody); return err })

	// wire: a bare echo carrying bodies of the canonical sizes.
	for _, tp := range []struct{ name, endpoint string }{
		{"wire.echo_loop", loopName("echo")},
		{"wire.echo_tcp", "tcp:127.0.0.1:0"},
	} {
		srv := wire.NewServer(wire.WithServerLog(func(string, ...any) {}))
		closers = append(closers, srv.Close)
		if err := srv.Register("echo", wire.HandlerFunc(func(context.Context, string, *wire.Request) *wire.Response {
			return &wire.Response{Status: wire.StatusOK, Body: replyBody}
		})); err != nil {
			return nil, err
		}
		bound, err := srv.ListenAndServe(tp.endpoint)
		if err != nil {
			return nil, err
		}
		client, err := wire.Dial(bound)
		if err != nil {
			return nil, err
		}
		closers = append(closers, client.Close)
		req := &wire.Request{Service: "echo", Op: "Import", Body: reqBody}
		row(tp.name, 1, func() error { _, err := client.Call(ctx, req); return err })
	}

	// cosm: dispatch + codec + wire around a stub that returns the
	// prebuilt reply — everything but the trader. Measured over TCP for
	// the ladder, and over loop: together with the real trader service
	// so that what the service adds (value conversion at both ends plus
	// the import itself) is priced independently of the TCP rows.
	stub, err := cosm.NewService(sid)
	if err != nil {
		return nil, err
	}
	stub.MustHandle("Import", func(call *cosm.Call) error { call.Result = reply; return nil })
	traderSvc, err := trader.NewService(wf.tr)
	if err != nil {
		return nil, err
	}
	for _, tp := range []struct {
		name, endpoint string
		svc            *cosm.Service
	}{
		{"cosm.invoke_stub", "tcp:127.0.0.1:0", stub},
		{"cosm.invoke_stub_loop", loopName("stub"), stub},
		{"trader.client_import_loop", loopName("trader"), traderSvc},
	} {
		node, err := listen(tp.endpoint, trader.ServiceName, tp.svc)
		if err != nil {
			return nil, err
		}
		r := node.MustRefFor(trader.ServiceName)
		if tp.svc == stub {
			c, err := cosm.BindWithSID(pool, r, sid)
			if err != nil {
				return nil, err
			}
			row(tp.name, 1, func() error { _, err := c.Invoke(ctx, "Import", reqV); return err })
			continue
		}
		tc, err := trader.DialTrader(ctx, pool, r)
		if err != nil {
			return nil, err
		}
		row(tp.name, 1, func() error { _, err := tc.Import(ctx, canonical); return err })
	}

	// trader: the canonical import in-process (the cache answers), the
	// write ops, and the constraint engine on its own.
	tr := trader.New("T", mustRepo())
	if err := exportAll(tr, wf.specs); err != nil {
		return nil, err
	}
	i := 0
	row("trader.import_local", 16, func() error {
		i++
		_, err := tr.Import(ctx, wf.queries[i%len(wf.queries)].req)
		return err
	})
	spare := carOffers(newRand(seed, "ladder-spare", 0), 1, wireOffers)[0]
	var id string
	export := func() (err error) { id, err = tr.Export(spare.typ, spare.ref, spare.props); return err }
	withdraw := func() error { return tr.Withdraw(id) }
	row("trader.export_local", 1, export).after = withdraw
	row("trader.withdraw_local", 1, withdraw).before = export
	src := canonical.Constraint + " && ChargeCurrency == USD"
	row("trader.constraint_compile", 16, func() error { _, err := trader.Compile(src); return err })
	compiled := trader.MustCompile(src)
	props := map[string]sidl.Lit{}
	for _, p := range wf.specs[0].props {
		props[p.Name] = p.Value
	}
	row("trader.constraint_match", 64, func() error { compiled.Match(props); return nil })

	// typemgr / match: closure resolution (uncached: every call follows
	// a repository change), offer type check, closure grading.
	repo := mustRepo()
	dummy := func() *typemgr.ServiceType { return &typemgr.ServiceType{Name: "Dummy"} }
	if err := repo.Define(dummy()); err != nil {
		return nil, err
	}
	row("typemgr.closure", 1, func() error { _, err := repo.ConformingTypes("L0"); return err }).before = func() error {
		if err := repo.Remove("Dummy"); err != nil {
			return err
		}
		return repo.Define(dummy())
	}
	row("typemgr.check_offer", 16, func() error { return repo.CheckOffer(spare.typ, spare.props) })
	closure, err := repo.ConformingTypes("L0")
	if err != nil {
		return nil, err
	}
	row("match.grade_closure", 64, func() error { match.GradeClosure(closure); return nil })

	// journal: append under interval fsync, as market_churn runs it.
	jdir := filepath.Join(scratch, "ladder-journal")
	j, err := journal.Open(jdir, journal.Options{Fsync: journal.FsyncInterval})
	if err != nil {
		return nil, err
	}
	closers = append(closers, j.Close)
	if err := j.Start(func() ([]byte, error) { return nil, nil }); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(struct {
		Op     string               `json:"op"`
		Offers []trader.OfferRecord `json:"offers"`
	}{"export", []trader.OfferRecord{tr.Offers()[0].Record()}})
	if err != nil {
		return nil, err
	}
	row("journal.append", 1, func() error { _, err := j.Append(payload); return err })

	// Mediation: no workload targets it yet, so these rows are its only
	// presence in the record.
	row("sidl.parse", 4, func() error { _, err := sidl.Parse(sidl.CarRentalIDL); return err })
	carSID := sidl.CarRentalSID()
	row("uiform.generate", 4, func() error { uiform.Generate(carSID); return nil })
	carSvc, _, err := carrental.New()
	if err != nil {
		return nil, err
	}
	carNode, err := listen(loopName("car"), "CarRentalService", carSvc)
	if err != nil {
		return nil, err
	}
	carRef := carNode.MustRefFor("CarRentalService")
	row("genclient.bind", 1, func() error { _, err := genclient.New(carNode.Pool()).Bind(ctx, carRef); return err })
	binding, err := genclient.New(carNode.Pool()).Bind(ctx, carRef)
	if err != nil {
		return nil, err
	}
	form := map[string]string{"SelectCar.selection.days": "3"}
	row("genclient.invoke_form", 1, func() error { _, err := binding.InvokeForm(ctx, "SelectCar", form); return err })
	dir := browser.NewDirectory()
	for k := 0; k < wireOffers; k++ {
		s := sidl.CarRentalSID()
		s.ServiceName = fmt.Sprintf("Rental%04d", k)
		if err := dir.Register(s, ref.New(fmt.Sprintf("tcp:10.1.0.%d:7000", k%250), s.ServiceName)); err != nil {
			return nil, err
		}
	}
	row("browser.search", 1, func() error {
		if len(dir.Search("rental0001")) == 0 {
			return fmt.Errorf("no hits")
		}
		return nil
	})

	if err := measureRows(l, rows, calls); err != nil {
		return nil, err
	}
	l["wire.echo_allocs"] = l["wire.echo_tcp_allocs"]
	// What the trader service adds to a stub call, transport held equal:
	// value conversion at both ends (the import itself is its own row).
	l["trader.service_conv_us"] = l["trader.client_import_loop_us"] - l["cosm.invoke_stub_loop_us"] - l["trader.import_local_us"]
	if err := journalRows(ctx, l, j, jdir, scratch, wf.specs, calls); err != nil {
		return nil, err
	}
	return l, nil
}

func mustRepo() *typemgr.Repo {
	repo, err := marketRepo()
	if err != nil {
		panic(err) // the definitions are constants; only a bug can fail them
	}
	return repo
}

// journalRows fills the journal rows that are not per-call timings —
// bytes per record and replay of the log the append row wrote — and
// trader.repl_catchup, a follower pulling a journalled leader's log.
func journalRows(ctx context.Context, l ladder, j *journal.Journal, jdir, scratch string, specs []offerSpec, followerRecords int) error {
	if err := j.Sync(); err != nil {
		return err
	}
	records := float64(j.Stats().LastSeq)
	var size int64
	entries, err := os.ReadDir(jdir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			size += info.Size()
		}
	}
	l["journal.bytes_per_record"] = float64(size) / records
	if err := j.Close(); err != nil {
		return err
	}
	var replays []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		rj, err := journal.Open(jdir, journal.Options{Fsync: journal.FsyncNever})
		if err != nil {
			return err
		}
		err = rj.Replay(func(uint64, []byte) error { return nil })
		replays = append(replays, usOf(time.Since(t0))/records)
		if cerr := rj.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	l["journal.replay_us_per_record"] = median(replays)

	rdir := filepath.Join(scratch, "ladder-repl")
	lj, err := journal.Open(rdir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		return err
	}
	defer lj.Close()
	leader := trader.New("HA", mustRepo())
	if err := lj.Start(leader.JournalSnapshot); err != nil {
		return err
	}
	leader.SetJournal(lj)
	for k := 0; k < followerRecords; k++ {
		s := specs[k%len(specs)]
		r := ref.New(fmt.Sprintf("tcp:14.0.%d.%d:7000", k/250, k%250), s.typ)
		if _, err := leader.Export(s.typ, r, s.props); err != nil {
			return err
		}
	}
	var catchups []float64
	for k := 0; k < 5; k++ {
		follower := trader.New("HA", mustRepo())
		follower.SetFollower("cosm://leader")
		t0 := time.Now()
		for {
			batch, err := leader.PullBatch(ctx, "bench", follower.Epoch(), follower.ReplApplied(), 512, 0)
			if err != nil {
				return err
			}
			if _, err := follower.ApplyBatch(batch); err != nil {
				return err
			}
			if follower.ReplApplied() >= batch.LastSeq {
				break
			}
		}
		catchups = append(catchups, usOf(time.Since(t0))/float64(followerRecords))
		if n := follower.OfferCount(); n != followerRecords {
			return fmt.Errorf("follower caught up to %d offers, leader has %d", n, followerRecords)
		}
	}
	l["trader.repl_catchup_us_per_record"] = median(catchups)
	return nil
}
