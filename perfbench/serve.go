package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"time"

	"medley/internal/server"
	"medley/internal/txengine"
)

// serve-mixed: an in-process server.Server on medley-sharded, driven over
// loopback TCP by serveConns pipelined connections with txload's mix: one
// request in ten is a transfer Txn over the account region, and of the
// rest serveReadPct% are Gets and the others Puts, keys Zipf(serveZipf)
// over serveKeys preloaded keys. The end-to-end figures come from a closed
// loop (serveWindow requests in flight per connection): capacity, and the
// latency a saturating client sees. The traced run adds an open loop at
// openRate whose latencies run from each request's due time; on a shared
// 2-CPU host those swing with every stall of the machine (their spread
// over runs is several times the largest allowed bound), so they are
// reported with the per-layer figures, unbounded.
//
// Key layout: transfer accounts at [0, serveAccounts), one stamp key per
// connection right above them, general keys from serveBase. A general key
// k always holds k<<valueShift | seq, so every Get can be checked.
const (
	serveShards   = 4
	serveKeys     = 100_000
	serveAccounts = 1024
	serveBase     = 2 * serveAccounts
	serveBalance  = 1_000_000
	serveConns    = 2
	serveWindow   = 16
	serveZipf     = 1.2
	serveTxnPct   = 10
	serveReadPct  = 90
	valueShift    = 24
	// inflightCap bounds one open-loop connection's outstanding requests;
	// when it is full the generator blocks and its lateness shows as lag.
	inflightCap = 1 << 14
)

func serveValue(k, seq uint64) uint64 { return k<<valueShift | seq&(1<<valueShift-1) }

type serveState struct {
	eng   txengine.Engine
	srv   *server.Server
	serve chan error
	conns []*server.Conn
}

func buildServe() (*serveState, error) {
	eng, err := txengine.Build("medley-sharded", txengine.Config{Shards: serveShards})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(eng, server.Options{})
	if err != nil {
		eng.Close()
		return nil, err
	}
	m, tx := srv.Map(), eng.NewWorker(-1)
	for a := uint64(0); a < serveAccounts; a++ {
		m.Put(tx, a, serveBalance)
	}
	for k := uint64(serveBase); k < serveBase+serveKeys; k++ {
		m.Put(tx, k, serveValue(k, 0))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	st := &serveState{eng: eng, srv: srv, serve: make(chan error, 1)}
	go func() { st.serve <- srv.Serve(ln) }()
	for i := 0; i < serveConns; i++ {
		c, err := server.Dial(ln.Addr().String(), time.Second)
		if err != nil {
			st.close()
			return nil, err
		}
		st.conns = append(st.conns, c)
	}
	return st, nil
}

// drain closes the client connections and drains the server.
func (st *serveState) drain() error {
	for _, c := range st.conns {
		c.Close()
	}
	st.conns = nil
	st.srv.Drain()
	return <-st.serve
}

func (st *serveState) close() {
	st.drain()
	st.eng.Close()
}

type reqKind uint8

const (
	reqGet reqKind = iota
	reqPut
	reqTxn
)

// request is one generated request; due and sent are span timestamps.
type request struct {
	kind      reqKind
	key, val  uint64 // Get/Put key and Put value; Txn source and target account
	id        uint64
	due, sent int64
}

// reqGen draws one connection's requests.
type reqGen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	stamp  uint64
	seq    uint64
	txnOps [4]server.TxnOp
}

func newReqGen(seed uint64, stream uint64) *reqGen {
	rng := rand.New(rand.NewPCG(seed, stream))
	return &reqGen{rng: rng, zipf: rand.NewZipf(rng, serveZipf, 1, serveKeys-1)}
}

func (g *reqGen) next() request {
	if g.rng.IntN(100) < serveTxnPct {
		from, to := g.zipf.Uint64()%serveAccounts, g.zipf.Uint64()%serveAccounts
		if from == to {
			to = (to + 1) % serveAccounts
		}
		return request{kind: reqTxn, key: from, val: to}
	}
	k := serveBase + g.zipf.Uint64()
	if g.rng.IntN(100) < serveReadPct {
		return request{kind: reqGet, key: k}
	}
	g.seq++
	return request{kind: reqPut, key: k, val: serveValue(k, g.seq)}
}

// transfer returns the Txn ops of a transfer request: read the source,
// move one unit, stamp the connection's sequence key.
func (g *reqGen) transfer(r request) []server.TxnOp {
	g.seq++
	g.txnOps = [4]server.TxnOp{
		{Kind: server.TxnRead, Key: r.key},
		server.AddDelta(r.key, -1),
		server.AddDelta(r.val, +1),
		{Kind: server.TxnWrite, Key: g.stamp, Arg: g.seq},
	}
	return g.txnOps[:]
}

func (g *reqGen) send(c *server.Conn, r *request) {
	switch r.kind {
	case reqGet:
		r.id = c.SendGet(r.key)
	case reqPut:
		r.id = c.SendPut(r.key, r.val)
	default:
		r.id = c.SendTxn(g.transfer(*r))
	}
}

// servePhase is one stretch of serve-mixed traffic.
type servePhase struct {
	dur     time.Duration
	open    bool // open loop at openRate; otherwise closed loop
	measure bool
	trace   bool
}

// connTally is one connection's outcome in one phase. Latency runs from
// the due time in the open loop and from the send in the closed loop;
// wire holds send-to-receive times, lag the generator's lateness.
type connTally struct {
	tally
	wireRead, wireWrite  hist
	lag                  hist
	sent, ok             uint64
	unknown, badResponse uint64
}

func (t *connTally) merge(o *connTally) {
	t.tally.merge(&o.tally)
	t.wireRead.merge(&o.wireRead)
	t.wireWrite.merge(&o.wireWrite)
	t.lag.merge(&o.lag)
	t.sent += o.sent
	t.ok += o.ok
	t.unknown += o.unknown
	t.badResponse += o.badResponse
}

// runConnPhase drives one connection through one phase: this goroutine
// generates and sends, a second one receives and matches responses in
// order. It returns once every sent request has been answered or counted
// unknown, with the error that ended sending early, if any.
func runConnPhase(c *server.Conn, g *reqGen, ph servePhase, rec *recorder) (connTally, error) {
	var t connTally
	var p *pacer
	if ph.open {
		var err error
		if p, err = newPacer(); err != nil {
			return t, err
		}
		defer p.close()
	}
	inflight := make(chan request, inflightCap)
	var tokens chan struct{}
	if !ph.open {
		tokens = make(chan struct{}, serveWindow)
		for i := 0; i < serveWindow; i++ {
			tokens <- struct{}{}
		}
	}
	recvDone := make(chan struct{})
	start := now()
	go func() {
		defer close(recvDone)
		receive(c, inflight, tokens, ph, rec, &t)
	}()
	var err error
	if ph.open {
		err = sendOpen(c, g, ph, p, start, inflight, &t)
	} else {
		err = sendClosed(c, g, start+int64(ph.dur), tokens, inflight, &t)
	}
	close(inflight)
	<-recvDone
	t.elapsed = time.Duration(now() - start)
	return t, err
}

// sendOpen sends one request every openRate/serveConns-th of a second from
// start until the phase ends, whatever the responses do. Each request
// carries its due time; lag records how late the generator sent it.
func sendOpen(c *server.Conn, g *reqGen, ph servePhase, p *pacer, start int64, inflight chan<- request, t *connTally) error {
	end := start + int64(ph.dur)
	interval := float64(time.Second) / (float64(openRate) / serveConns)
	unflushed := 0
	for i := 0; ; i++ {
		due := start + int64(float64(i)*interval)
		if due >= end {
			break
		}
		at := now()
		if due > at || unflushed >= 32 {
			if err := c.Flush(); err != nil {
				return err
			}
			unflushed = 0
			if due > at {
				if err := p.sleep(due - at); err != nil {
					return err
				}
				at = now()
			}
		}
		r := g.next()
		r.due, r.sent = due, at
		g.send(c, &r)
		unflushed++
		if ph.measure {
			t.lag.record(time.Duration(at - due))
		}
		t.sent++
		inflight <- r
	}
	return c.Flush()
}

// sendClosed keeps serveWindow requests in flight until end: a request is
// sent only once a token from an answered one is back.
func sendClosed(c *server.Conn, g *reqGen, end int64, tokens chan struct{}, inflight chan<- request, t *connTally) error {
	for now() < end {
		select {
		case <-tokens:
		default:
			if err := c.Flush(); err != nil {
				return err
			}
			<-tokens
		}
		r := g.next()
		r.sent = now()
		g.send(c, &r)
		t.sent++
		inflight <- r
	}
	return c.Flush()
}

// receive matches responses to the in-flight requests in order. After a
// receive error every outstanding request counts as unknown: it may or may
// not have executed.
func receive(c *server.Conn, inflight <-chan request, tokens chan struct{}, ph servePhase, rec *recorder, t *connTally) {
	broken := false
	var n uint64
	for r := range inflight {
		var resp *server.Response
		var err error
		if !broken {
			resp, err = c.Recv()
		}
		at := now()
		if tokens != nil {
			tokens <- struct{}{}
		}
		if broken || err != nil {
			broken = true
			t.unknown++
			continue
		}
		t.done++
		switch {
		case resp.ID != r.id:
			t.badResponse++
		case resp.Status == server.StatusOK:
			t.ok++
			if r.kind == reqGet && (!resp.Found || resp.Val>>valueShift != r.key) {
				t.badResponse++
			}
		case resp.Status == server.StatusAborted && r.kind == reqTxn:
			// Insufficient funds: a completed business outcome, not a failure.
		default:
			t.failed++
		}
		if !ph.measure {
			continue
		}
		from := r.sent
		if ph.open {
			from = r.due
		}
		lat := time.Duration(at - from)
		t.all.record(lat)
		name := spClientWrite
		if r.kind == reqGet {
			t.read.record(lat)
			t.wireRead.record(time.Duration(at - r.sent))
			name = spClientGet
		} else {
			t.write.record(lat)
			t.wireWrite.record(time.Duration(at - r.sent))
		}
		if ph.trace && n%traceSample == 0 {
			rec.add(name, r.sent, at)
		}
		n++
	}
}

// runServePhase runs one phase on every connection at once.
func runServePhase(st *serveState, gens []*reqGen, ph servePhase, recs []*recorder) (connTally, error) {
	outs := make([]connTally, len(st.conns))
	errs := make([]error, len(st.conns))
	var wg sync.WaitGroup
	for i, c := range st.conns {
		wg.Add(1)
		go func(i int, c *server.Conn) {
			defer wg.Done()
			outs[i], errs[i] = runConnPhase(c, gens[i], ph, recs[i])
		}(i, c)
	}
	wg.Wait()
	var total connTally
	for i := range outs {
		total.merge(&outs[i])
	}
	return total, errors.Join(errs...)
}

// servePhases is serve-mixed's schedule: a warmup, then the measured
// seconds of closed loop in windows. A traced run spends half the seconds
// in closed-loop windows, every other one traced, and the other half in
// traced open-loop windows.
func servePhases(cfg runConfig) []servePhase {
	ps := []servePhase{{dur: warmup}}
	w := cfg.seconds / windows
	if !cfg.trace {
		for i := 0; i < windows; i++ {
			ps = append(ps, servePhase{dur: w, measure: true})
		}
		return ps
	}
	for i := 0; i < windows/2; i++ {
		ps = append(ps, servePhase{dur: w, measure: true, trace: i%2 == 1})
	}
	for i := 0; i < windows/2; i++ {
		ps = append(ps, servePhase{dur: w, open: true, measure: true, trace: true})
	}
	return ps
}

func runServe(cfg runConfig) (*result, error) {
	res := newResult()
	st, setup, err := medianSetup(setupRuns, buildServe, func(s *serveState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.eng.Close()
	res.e2e["setup_s"] = setup
	res.e2e["heap_mb"] = heapMB()

	gens := make([]*reqGen, serveConns)
	recs := make([]*recorder, serveConns+1)
	for i := range gens {
		gens[i] = newReqGen(cfg.seed, uint64(i)+1)
		gens[i].stamp = serveAccounts + uint64(i)
		recs[i] = newRecorder()
	}
	phases := servePhases(cfg)
	outs := make([]connTally, len(phases))
	counters := make([]server.Counters, len(phases)+1)
	stats := make([]txengine.Stats, len(phases)+1)
	var total connTally
	var closedPlain, closedTraced, open []*tally
	var attempted, failed uint64
	for i, ph := range phases {
		if ph.open && !phases[i-1].open {
			// Start the open loop on a fresh collection cycle, so that every
			// run sees its collections at the same points of the schedule.
			runtime.GC()
		}
		counters[i], stats[i] = st.srv.Counters(), st.eng.Stats()
		if outs[i], err = runServePhase(st, gens, ph, recs); err != nil {
			return nil, err
		}
		total.merge(&outs[i])
		t := &outs[i].tally
		switch {
		case !ph.measure:
			continue
		case ph.open:
			open = append(open, t)
		case ph.trace:
			closedTraced = append(closedTraced, t)
		default:
			closedPlain = append(closedPlain, t)
		}
		attempted += outs[i].sent
		failed += outs[i].failed + outs[i].unknown
	}
	last := len(phases)
	counters[last], stats[last] = st.srv.Counters(), st.eng.Stats()
	growth := heapMB() - res.e2e["heap_mb"]
	res.outcomes(attempted, failed)
	res.throughput(closedPlain)
	res.latencies(closedPlain)

	// Output checks: every request answered, answers well formed, the
	// server's served counters agree with the client's OKs, and the
	// transfer region still holds all its money once drained.
	if err := st.drain(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ctr := st.srv.Counters()
	res.checkf(total.unknown == 0, "serve-mixed: %d requests with unknown outcome", total.unknown)
	res.checkf(total.badResponse == 0, "serve-mixed: %d responses with a wrong id or Get value", total.badResponse)
	res.checkf(ctr.SnapServed+ctr.OCCServed == total.ok, "serve-mixed: server served %d+%d, client saw %d OK",
		ctr.SnapServed, ctr.OCCServed, total.ok)
	tx, m := st.eng.NewWorker(-1), st.srv.Map()
	var money uint64
	if err := tx.Run(func() error {
		money = 0
		for a := uint64(0); a < serveAccounts; a++ {
			v, _ := m.Get(tx, a)
			money += v
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("serve: reading accounts: %w", err)
	}
	res.checkf(money == serveAccounts*serveBalance, "serve-mixed: accounts hold %d, want %d", money, serveAccounts*serveBalance)

	if cfg.trace {
		res.layer["heap.growth_mb"] = growth
		c0, c1 := counters[1], counters[last]
		reqs := float64(c1.Requests - c0.Requests)
		snap := float64(c1.SnapServed - c0.SnapServed)
		res.layer["server.batch_size"] = ratio(float64(c1.BatchedOps-c0.BatchedOps), float64(c1.Batches-c0.Batches))
		res.layer["server.lane_share"] = ratio(snap, reqs)
		res.layer["server.combined_share"] = ratio(float64(c1.Combined-c0.Combined), snap)
		res.layer["server.shed_share"] = ratio(float64(c1.Shed-c0.Shed), reqs)
		res.engineLayers(stats[last].Delta(stats[1]))
		res.overhead(closedPlain, closedTraced)
		var wire connTally
		for i := range outs {
			if phases[i].open {
				wire.merge(&outs[i])
			}
		}
		res.layer["gen.lag_us"] = wire.lag.us(0.99)
		res.layer["open.read_p50_us"] = medianOf(open, func(t *tally) float64 { return t.read.us(0.50) })
		res.layer["open.read_p99_us"] = medianOf(open, func(t *tally) float64 { return t.read.us(0.99) })
		res.layer["open.write_p50_us"] = medianOf(open, func(t *tally) float64 { return t.write.us(0.50) })
		res.layer["open.write_p99_us"] = medianOf(open, func(t *tally) float64 { return t.write.us(0.99) })
		recs[serveConns] = newRecorder()
		getNs, writeNs := serveRung(st, cfg, recs[serveConns])
		res.layer["server.get_overhead_us"] = wire.wireRead.us(0.5) - getNs/1e3
		res.layer["server.write_overhead_us"] = wire.wireWrite.us(0.5) - writeNs/1e3
		res.recs = recs
		res.idle("structures.op_ns", "core.commit_ns", "core.compose_ratio", "txengine.adapter_ns",
			"sharded.hint_ns", "montage.op_ns", "pnvm.writes_per_commit", "pnvm.writebacks_per_commit",
			"pnvm.fences_per_commit", "pnvm.records_per_key", "recovery.dump_ms", "recovery.rebuild_ms",
			"recovery.total_ms")
	}
	return res, nil
}

// serveRung runs the serving mix in process on the drained server's engine
// and map, one request at a time on one goroutine, the way the server
// executes each request type: Gets as snapshot reads, Puts as standalone
// writes, transfers as hinted transactions. It returns the median Get and
// write times in nanoseconds.
func serveRung(st *serveState, cfg runConfig, rec *recorder) (getNs, writeNs float64) {
	g := newReqGen(cfg.seed, serveConns+1)
	g.stamp = serveAccounts + serveConns
	tx, m := st.eng.NewWorker(-1), st.srv.Map()
	var get, write hist
	var cur request
	getFn := func() { m.Get(tx, cur.key) }
	txnFn := func() error {
		for _, op := range g.txnOps {
			switch op.Kind {
			case server.TxnRead:
				m.Get(tx, op.Key)
			case server.TxnWrite:
				m.Put(tx, op.Key, op.Arg)
			case server.TxnAdd:
				v, _ := m.Get(tx, op.Key)
				m.Put(tx, op.Key, v+op.Arg)
			}
		}
		return nil
	}
	keys := make([]uint64, 0, 4)
	end := time.Now().Add(min(time.Second, cfg.seconds/5))
	for i := 0; time.Now().Before(end); i++ {
		cur = g.next()
		t0 := now()
		switch cur.kind {
		case reqGet:
			txengine.SnapshotRead(tx, getFn)
		case reqPut:
			m.Put(tx, cur.key, cur.val)
		default:
			keys = keys[:0]
			for _, op := range g.transfer(cur) {
				keys = append(keys, op.Key)
			}
			txengine.HintKeys(tx, keys...)
			_ = tx.Run(txnFn) // txnFn never fails, and Run retries conflicts itself
		}
		t1 := now()
		name := spRungWrite
		if cur.kind == reqGet {
			get.record(time.Duration(t1 - t0))
			name = spRungGet
		} else {
			write.record(time.Duration(t1 - t0))
		}
		if i%traceSample == 0 {
			rec.add(name, t0, t1)
		}
	}
	return get.quantile(0.5), write.quantile(0.5)
}
