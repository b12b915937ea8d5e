package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/chaos"
	"medley/internal/txengine"
)

// Fault-injection points on the wire path. server.frame.read fires before
// each frame read (error faults drop the connection as a failed read would);
// server.frame.write fires at each response write — armed with a torn fault
// it pushes a strict prefix of the encoded frames onto the wire and kills
// the connection mid-frame, which is how the client retry tests manufacture
// torn frames and forced reconnects.
var (
	cpFrameRead  = chaos.At("server.frame.read")
	cpFrameWrite = chaos.At("server.frame.write")
)

// Options tunes a Server. The zero value is serviceable: coalescing on,
// admission sized to the host, the read fast lane on (where the engine
// supports it), a half-second drain grace.
type Options struct {
	// BatchMax is the most adjacent single-op requests (OpGet/OpPut) from
	// one connection the scheduler coalesces into a single hinted
	// transaction (0: DefaultBatchMax; 1: coalescing off). Coalescing
	// amortizes admission, scheduling, and commit overhead across the
	// batch; because members come from one connection's FIFO, program
	// order per connection is preserved.
	BatchMax int
	// Tokens is the admission controller's token count: the number of
	// request batches allowed to execute on the engine concurrently
	// (0: 4×GOMAXPROCS). Requests beyond it wait up to AdmitWait and are
	// then shed with StatusRetry — bounded queueing instead of collapse.
	// Read-lane batches bypass the tokens: the combiner executes at most
	// one batch per stripe at a time, a strictly tighter bound.
	Tokens int
	// AdmitWait is how long a batch may wait for an admission token before
	// being shed (0: DefaultAdmitWait; negative: shed immediately).
	AdmitWait time.Duration
	// QueueDepth is the per-connection decoded-request queue — the server
	// side of the pipelining window (0: DefaultQueueDepth). A full queue
	// blocks the connection's reader, pushing back on the client through
	// TCP flow control rather than buffering unboundedly.
	QueueDepth int
	// DrainGrace bounds how long Drain waits for each connection's
	// in-flight requests (0: DefaultDrainGrace). Requests arriving after
	// drain begins are rejected with StatusDraining.
	DrainGrace time.Duration
	// MapSpec shapes the hosted map (zero: hash, 1<<16 buckets). Recovery
	// flows must rebuild with the same spec.
	MapSpec txengine.MapSpec
	// CloseEngine closes the engine after Drain completes. Leave false
	// when the caller owns the engine (tests that crash and recover it).
	CloseEngine bool
	// NoReadLane disables the snapshot read fast lane even on CapSnapshot
	// engines: every request executes through the OCC path, as before the
	// lane existed. The A/B measurement knob (-noreadlane in txserver) and
	// a kill switch. Engines without CapSnapshot never have the lane.
	NoReadLane bool
	// ReadCombiners is the read lane's combiner stripe count (0: a host-
	// sized default). Each stripe drains the pending reads of its assigned
	// connections into one pinned snapshot cut per wakeup; fewer stripes
	// combine more aggressively, more stripes admit more read parallelism.
	ReadCombiners int
	// IdleTimeout closes a connection whose next frame does not arrive
	// within it (0: no idle limit), so a hung or vanished client cannot pin
	// its engine session and reader/processor goroutines forever. The
	// deadline is re-armed before each frame read and suspended once drain
	// begins — drain's own absolute deadline (DrainGrace) takes over.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write/flush (0: no limit): a client
	// that stops reading while the server still owes it responses is cut
	// off instead of blocking the processor on TCP backpressure forever.
	// Suspended during drain, like IdleTimeout.
	WriteTimeout time.Duration
}

// Option defaults.
const (
	DefaultBatchMax   = 16
	DefaultAdmitWait  = 2 * time.Millisecond
	DefaultQueueDepth = 128
	DefaultDrainGrace = 500 * time.Millisecond
)

func (o Options) batchMax() int {
	if o.BatchMax > 0 {
		return o.BatchMax
	}
	return DefaultBatchMax
}

func (o Options) tokens() int {
	if o.Tokens > 0 {
		return o.Tokens
	}
	return 4 * runtime.GOMAXPROCS(0)
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return DefaultQueueDepth
}

func (o Options) admitWait() time.Duration {
	if o.AdmitWait != 0 {
		return o.AdmitWait
	}
	return DefaultAdmitWait
}

func (o Options) drainGrace() time.Duration {
	if o.DrainGrace > 0 {
		return o.DrainGrace
	}
	return DefaultDrainGrace
}

func (o Options) readCombiners() int {
	if o.ReadCombiners > 0 {
		return o.ReadCombiners
	}
	return max(1, min(4, runtime.GOMAXPROCS(0)/4))
}

func (o Options) mapSpec() txengine.MapSpec {
	if o.MapSpec == (txengine.MapSpec{}) {
		return txengine.MapSpec{Kind: txengine.KindHash, Buckets: 1 << 16}
	}
	return o.MapSpec
}

// Counters are the server-level counters (the engine's transactional
// counters stay on Engine.Stats).
type Counters struct {
	Conns      uint64 // connections accepted
	Requests   uint64 // requests decoded
	Shed       uint64 // requests shed with StatusRetry (admission)
	Drained    uint64 // requests rejected with StatusDraining
	Batches    uint64 // coalesced multi-op batches executed
	BatchedOps uint64 // single-op requests executed inside those batches
	SnapServed uint64 // requests answered from the snapshot read lane
	Combined   uint64 // lane requests that shared their pinned cut with another connection
	OCCServed  uint64 // requests answered StatusOK through the OCC path
	IdleClosed uint64 // connections closed by the idle-timeout read deadline
}

// Server serves the wire protocol over one hosted transactional map on one
// engine. Each connection gets a dedicated engine session (Tx handle) and a
// FIFO request queue; responses are written in request order. On engines
// with CapSnapshot, read-only work — Gets and all-Read Txn batches — is
// routed through the read fast lane (see readlane.go) unless
// Options.NoReadLane.
type Server struct {
	eng  txengine.Engine
	m    txengine.Map[uint64]
	opts Options
	lane *readLane // nil: OCC path only

	tokens   chan struct{}
	draining atomic.Bool
	doneCh   chan struct{}
	drainOne sync.Once

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	nextTid atomic.Int64

	cConns, cRequests, cShed, cDrained, cBatches, cBatchedOps atomic.Uint64
	cSnapServed, cCombined, cOCCServed, cIdleClosed           atomic.Uint64
}

// New builds a server over eng, creating the hosted map from opts.MapSpec.
// The engine must support dynamic transactions: OpTxn reads feed TxnAdd
// arithmetic, and coalesced batches return real in-transaction values.
func New(eng txengine.Engine, opts Options) (*Server, error) {
	if !eng.Caps().Has(txengine.CapTx | txengine.CapDynamicTx) {
		return nil, fmt.Errorf("server: engine %s needs dynamic transactions: %w", eng.Name(), txengine.ErrUnsupported)
	}
	m, err := eng.NewUintMap(opts.mapSpec())
	if err != nil {
		return nil, fmt.Errorf("server: hosted map: %w", err)
	}
	s := &Server{
		eng:    eng,
		m:      m,
		opts:   opts,
		tokens: make(chan struct{}, opts.tokens()),
		doneCh: make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	for i := 0; i < opts.tokens(); i++ {
		s.tokens <- struct{}{}
	}
	if !opts.NoReadLane && eng.Caps().Has(txengine.CapSnapshot) {
		s.lane = newReadLane(s, opts.readCombiners())
	}
	return s, nil
}

// Map exposes the hosted map (recovery audits read through it in-process).
func (s *Server) Map() txengine.Map[uint64] { return s.m }

// Engine exposes the served engine.
func (s *Server) Engine() txengine.Engine { return s.eng }

// ReadLaneEnabled reports whether the snapshot read fast lane is active.
func (s *Server) ReadLaneEnabled() bool { return s.lane != nil }

// Counters snapshots the server-level counters.
func (s *Server) Counters() Counters {
	return Counters{
		Conns:      s.cConns.Load(),
		Requests:   s.cRequests.Load(),
		Shed:       s.cShed.Load(),
		Drained:    s.cDrained.Load(),
		Batches:    s.cBatches.Load(),
		BatchedOps: s.cBatchedOps.Load(),
		SnapServed: s.cSnapServed.Load(),
		Combined:   s.cCombined.Load(),
		OCCServed:  s.cOCCServed.Load(),
		IdleClosed: s.cIdleClosed.Load(),
	}
}

// Serve accepts connections on ln until Drain (returns nil) or a listener
// failure (returns the error).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		// Registration is under the same lock Drain flips the flag under,
		// so every connection either registers before the drain critical
		// section (and gets its I/O deadline set there) or observes
		// draining here and is turned away.
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.wg.Add(1)
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.cConns.Add(1)
		go s.handle(c)
	}
}

// Drain gracefully shuts the server down: stop accepting, reject requests
// that arrive from now on with StatusDraining, let every connection finish
// the requests it already pipelined (bounded by DrainGrace), then make the
// engine durable (Persister.Sync) so every acknowledged commit survives a
// subsequent crash, and close it if Options.CloseEngine. Safe to call from
// any goroutine and more than once; every call blocks until the drain
// completes.
func (s *Server) Drain() {
	s.drainOne.Do(func() {
		s.mu.Lock()
		s.draining.Store(true)
		if s.ln != nil {
			s.ln.Close()
		}
		deadline := time.Now().Add(s.opts.drainGrace())
		for c := range s.conns {
			c.SetDeadline(deadline)
		}
		s.mu.Unlock()
		s.wg.Wait()
		if p, ok := s.eng.(txengine.Persister); ok && len(p.Devices()) > 0 {
			p.Sync()
		}
		if s.opts.CloseEngine {
			s.eng.Close()
		}
		close(s.doneCh)
	})
	<-s.doneCh
}

// pendReq is one decoded request in a connection's queue. shed marks
// requests that arrived after drain began: they flow through the processor
// (preserving response order) but are answered StatusDraining unexecuted.
// read marks lane-eligible requests (OpGet, or OpTxn whose ops are all
// TxnRead), classified once at decode time. ops is the pooled backing store
// of req.Ops, recycled by the processor once the response is encoded.
type pendReq struct {
	req  Request
	ops  *[]TxnOp
	shed bool
	read bool
}

// opsPool recycles OpTxn op slices between the reader (which decodes into
// them) and the processor (which returns them after responding), so a
// steady transaction stream allocates no per-request op storage.
var opsPool = sync.Pool{New: func() any { s := make([]TxnOp, 0, 16); return &s }}

// allRead reports whether every op of an OpTxn is a TxnRead.
func allRead(ops []TxnOp) bool {
	for i := range ops {
		if ops[i].Kind != TxnRead {
			return false
		}
	}
	return true
}

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	queue := make(chan pendReq, s.opts.queueDepth())
	go s.readLoop(c, queue)
	s.procLoop(c, queue)
}

// readLoop decodes frames into the connection's queue. Any read or decode
// error ends the connection's input (the processor still answers everything
// already queued); a full queue blocks here, which backpressures the client
// through TCP flow control. With Options.IdleTimeout set, the read deadline
// is re-armed per frame so an idle connection is closed rather than pinned;
// once drain begins the re-arming stops and Drain's absolute deadline rules
// (a reset racing the drain flag extends that one connection's bound by at
// most the idle timeout).
func (s *Server) readLoop(c net.Conn, queue chan<- pendReq) {
	defer close(queue)
	br := bufio.NewReaderSize(c, 64<<10)
	idle := s.opts.IdleTimeout
	var buf []byte
	for {
		if idle > 0 && !s.draining.Load() {
			c.SetReadDeadline(time.Now().Add(idle))
		}
		if cpFrameRead.Hit() != nil {
			return // injected input fault: the connection drops as on a failed read
		}
		body, err := ReadFrame(br, buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !s.draining.Load() {
				s.cIdleClosed.Add(1)
			}
			return
		}
		buf = body
		pr := pendReq{}
		if len(body) > reqHeaderLen && body[8] == OpTxn {
			// Transactions decode into pooled op storage; the processor
			// returns it once the response is encoded.
			pr.ops = opsPool.Get().(*[]TxnOp)
			pr.req, err = DecodeRequestReuse(body, *pr.ops)
			*pr.ops = pr.req.Ops[:0:cap(pr.req.Ops)]
		} else {
			pr.req, err = DecodeRequest(body)
		}
		if err != nil {
			if pr.ops != nil {
				opsPool.Put(pr.ops)
			}
			return
		}
		pr.read = pr.req.Op == OpGet || (pr.req.Op == OpTxn && allRead(pr.req.Ops))
		s.cRequests.Add(1)
		pr.shed = s.draining.Load()
		queue <- pr
	}
}

// proc is one connection's processor state: the dedicated engine session,
// the read-lane stripe and reusable job, and every per-connection scratch
// buffer the hot path reuses instead of allocating — request batches, hint
// keys, read results, the encoded-response buffer, and a Response value
// whose address is stable so encoding never escapes to the heap.
type proc struct {
	s     *Server
	tx    txengine.Tx
	comb  *combiner // read-lane stripe; nil when the lane is off
	timer *time.Timer

	batch   []pendReq
	keys    []uint64
	results []ReadResult
	wbuf    []byte
	resp    Response
	job     readJob

	// lastWriteTS is the engine commit timestamp of this connection's most
	// recent write; a snapshot cut must reach it before the lane may serve
	// this connection's reads (read-your-writes — see execLane).
	lastWriteTS uint64
}

// procLoop is the connection's processor: it dequeues requests, coalesces
// adjacent single-ops into batches, classifies them read vs write, executes
// read runs through the snapshot lane and everything else through admission
// control on the connection's dedicated engine session, and writes responses
// in request order. The output writer is flushed only when no request is
// ready — pipelined bursts pay one syscall per burst, not per response.
func (s *Server) procLoop(c net.Conn, queue <-chan pendReq) {
	bw := bufio.NewWriterSize(c, 64<<10)
	p := &proc{s: s, tx: s.eng.NewWorker(int(s.nextTid.Add(1)))}
	if s.lane != nil {
		p.comb = s.lane.stripeFor(s.cConns.Load())
		p.job.done = make(chan struct{}, 1)
	}
	p.timer = time.NewTimer(time.Hour)
	if !p.timer.Stop() {
		<-p.timer.C
	}
	batchMax := s.opts.batchMax()
	var (
		leftover *pendReq
		holdover pendReq
	)
	for {
		var first pendReq
		if leftover != nil {
			first, leftover = *leftover, nil
		} else {
			// Nothing collected: flush buffered responses before blocking.
			if bw.Buffered() > 0 {
				if s.flushConn(c, bw) != nil {
					s.discard(queue)
					return
				}
			}
			var ok bool
			if first, ok = <-queue; !ok {
				return
			}
		}
		p.batch = append(p.batch[:0], first)
		closed := false
		if !first.shed && first.req.Op != OpTxn && batchMax > 1 {
		collect:
			for len(p.batch) < batchMax {
				select {
				case r, ok := <-queue:
					if !ok {
						closed = true
						break collect
					}
					if r.shed || r.req.Op == OpTxn {
						holdover = r
						leftover = &holdover
						break collect
					}
					p.batch = append(p.batch, r)
				default:
					break collect
				}
			}
		}
		p.exec(p.batch)
		if len(p.wbuf) > 0 {
			if !s.writeFrames(c, bw, p.wbuf) {
				s.discard(queue)
				return
			}
			p.wbuf = p.wbuf[:0]
		}
		if closed {
			s.flushConn(c, bw)
			return
		}
	}
}

// writeFrames pushes one exec round's encoded responses toward the wire,
// honoring the write deadline and the frame-write fault point. A false
// return means the connection must die: a real write error, an injected
// error, or an injected torn write — for the latter a strict prefix of the
// frame bytes is flushed onto the wire first, so the client sees a frame
// truncated mid-body, exactly what a connection dying mid-send produces.
func (s *Server) writeFrames(c net.Conn, bw *bufio.Writer, buf []byte) bool {
	if n, torn := cpFrameWrite.Torn(len(buf)); torn {
		bw.Write(buf[:n])
		bw.Flush()
		// Close now, not via handle's deferred Close: the caller's discard
		// waits on the readLoop, which would otherwise keep waiting on a
		// healthy socket whose client is itself waiting for the rest of
		// this frame.
		c.Close()
		return false
	}
	if cpFrameWrite.Hit() != nil {
		c.Close()
		return false
	}
	if wt := s.opts.WriteTimeout; wt > 0 && !s.draining.Load() {
		c.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err := bw.Write(buf)
	return err == nil
}

// flushConn flushes buffered responses under the write deadline (suspended
// during drain, whose absolute deadline already bounds the connection).
func (s *Server) flushConn(c net.Conn, bw *bufio.Writer) error {
	if wt := s.opts.WriteTimeout; wt > 0 && !s.draining.Load() {
		c.SetWriteDeadline(time.Now().Add(wt))
	}
	return bw.Flush()
}

// discard drains a connection's queue after its writer died, so the reader
// (possibly blocked on a full queue) can observe its own error and exit.
func (s *Server) discard(queue <-chan pendReq) {
	for range queue {
	}
}

// exec answers one collected batch, appending the responses to p.wbuf in
// request order. With the read lane on, the batch is split into maximal
// contiguous runs of reads vs writes: read runs go through the snapshot
// combiner, everything else through the OCC path — executed strictly in
// order, so a read following this connection's write observes it. Pooled
// op storage is recycled at the end.
func (p *proc) exec(batch []pendReq) {
	switch {
	case batch[0].shed:
		p.s.cDrained.Add(uint64(len(batch)))
		for i := range batch {
			p.resp = Response{ID: batch[i].req.ID, Op: batch[i].req.Op, Status: StatusDraining}
			p.wbuf = AppendResponse(p.wbuf, &p.resp)
		}
	case p.comb == nil:
		p.execOCC(batch)
	default:
		for len(batch) > 0 {
			n := 1
			for n < len(batch) && batch[n].read == batch[0].read {
				n++
			}
			if batch[0].read {
				p.execLane(batch[:n])
			} else {
				p.execOCC(batch[:n])
			}
			batch = batch[n:]
		}
	}
	for i := range p.batch {
		if p.batch[i].ops != nil {
			opsPool.Put(p.batch[i].ops)
			p.batch[i].ops = nil
		}
	}
}

// execLane serves one read run — adjacent Gets, or a single all-Read Txn —
// through the connection's combiner stripe: the run is submitted as one job,
// a leader drains every stripe connection's pending jobs into a single
// pinned snapshot cut, and the results come back in j.results. A cut that
// trails this connection's own last write (a concurrent writer elsewhere is
// still sealing) falls the run back to the OCC path, preserving strict
// read-your-writes.
func (p *proc) execLane(run []pendReq) {
	j := &p.job
	j.batch = run
	j.minTS = p.lastWriteTS
	j.fallback = false
	p.comb.submit(j)
	if j.fallback {
		p.execOCC(run)
		return
	}
	ri := 0
	for i := range run {
		r := &run[i].req
		p.resp = Response{ID: r.ID, Op: r.Op, Status: StatusOK}
		if r.Op == OpTxn {
			p.resp.Reads = j.results[ri : ri+len(r.Ops)]
			ri += len(r.Ops)
		} else {
			p.resp.Found, p.resp.Val = j.results[ri].Found, j.results[ri].Val
			ri++
		}
		p.wbuf = AppendResponse(p.wbuf, &p.resp)
	}
}

// execOCC runs one batch — a single request or several coalesced single-ops
// — through admission control and the engine's transactional path, and
// appends the responses to p.wbuf.
func (p *proc) execOCC(batch []pendReq) {
	s := p.s
	// Admission: take a token, waiting at most admitWait; shed the whole
	// batch with StatusRetry rather than queueing without bound.
	select {
	case <-s.tokens:
	default:
		wait := s.opts.admitWait()
		if wait < 0 {
			p.shed(batch)
			return
		}
		p.timer.Reset(wait)
		select {
		case <-s.tokens:
			if !p.timer.Stop() {
				<-p.timer.C
			}
		case <-p.timer.C:
			p.shed(batch)
			return
		}
	}
	var err error
	if len(batch) == 1 {
		if batch[0].req.Op == OpTxn {
			err = p.execTxn(&batch[0].req)
		} else {
			p.execSingle(&batch[0].req)
		}
	} else {
		err = p.execBatch(batch)
	}
	s.tokens <- struct{}{}
	// Writes advance the connection's read-your-writes watermark; reads
	// leave it where it was (LastCommitTS only moves on a published write).
	p.lastWriteTS = txengine.LastCommitTS(p.tx)
	switch {
	case err == nil:
		s.cOCCServed.Add(uint64(len(batch)))
		for i := range batch {
			r := &batch[i].req
			p.resp = Response{ID: r.ID, Op: r.Op, Status: StatusOK}
			if r.Op == OpTxn {
				p.resp.Reads = p.results
			} else {
				p.resp.Found, p.resp.Val = p.results[i].Found, p.results[i].Val
			}
			p.wbuf = AppendResponse(p.wbuf, &p.resp)
		}
	case errors.Is(err, txengine.ErrBusinessAbort):
		for i := range batch {
			p.resp = Response{ID: batch[i].req.ID, Op: batch[i].req.Op, Status: StatusAborted}
			p.wbuf = AppendResponse(p.wbuf, &p.resp)
		}
	default:
		msg := err.Error()
		for i := range batch {
			p.resp = Response{ID: batch[i].req.ID, Op: batch[i].req.Op, Status: StatusErr, Err: msg}
			p.wbuf = AppendResponse(p.wbuf, &p.resp)
		}
	}
}

func (p *proc) shed(batch []pendReq) {
	p.s.cShed.Add(uint64(len(batch)))
	for i := range batch {
		p.resp = Response{ID: batch[i].req.ID, Op: batch[i].req.Op, Status: StatusRetry}
		p.wbuf = AppendResponse(p.wbuf, &p.resp)
	}
}

// execSingle runs one Get/Put as a standalone auto-committed operation —
// the cheapest execution every engine offers.
func (p *proc) execSingle(r *Request) {
	p.results = p.results[:0]
	if r.Op == OpGet {
		v, ok := p.s.m.Get(p.tx, r.Key)
		p.results = append(p.results, ReadResult{Found: ok, Val: v})
		return
	}
	prev, had := p.s.m.Put(p.tx, r.Key, r.Val)
	p.results = append(p.results, ReadResult{Found: had, Val: prev})
}

// execBatch coalesces adjacent single-ops from one connection into a single
// transaction with every key pre-declared, so sharded engines latch a
// multi-shard batch's keys up front. One
// admission token, one commit, one response flush for the whole batch.
func (p *proc) execBatch(batch []pendReq) error {
	s := p.s
	p.keys = p.keys[:0]
	for i := range batch {
		p.keys = append(p.keys, batch[i].req.Key)
	}
	txengine.HintKeys(p.tx, p.keys...)
	p.results = p.results[:0]
	err := p.tx.Run(func() error {
		p.results = p.results[:0]
		for i := range batch {
			r := &batch[i].req
			if r.Op == OpGet {
				v, ok := s.m.Get(p.tx, r.Key)
				p.results = append(p.results, ReadResult{Found: ok, Val: v})
			} else {
				prev, had := s.m.Put(p.tx, r.Key, r.Val)
				p.results = append(p.results, ReadResult{Found: had, Val: prev})
			}
		}
		return nil
	})
	if err == nil {
		s.cBatches.Add(1)
		s.cBatchedOps.Add(uint64(len(batch)))
	}
	return err
}

// execTxn runs one OpTxn atomically, keys pre-declared. TxnAdd underflow
// business-aborts the whole transaction (StatusAborted to the client,
// nothing applied).
func (p *proc) execTxn(r *Request) error {
	s := p.s
	p.keys = p.keys[:0]
	for _, op := range r.Ops {
		p.keys = append(p.keys, op.Key)
	}
	txengine.HintKeys(p.tx, p.keys...)
	p.results = p.results[:0]
	return p.tx.Run(func() error {
		p.results = p.results[:0]
		for _, op := range r.Ops {
			switch op.Kind {
			case TxnRead:
				v, ok := s.m.Get(p.tx, op.Key)
				p.results = append(p.results, ReadResult{Found: ok, Val: v})
			case TxnWrite:
				s.m.Put(p.tx, op.Key, op.Arg)
			case TxnAdd:
				v, _ := s.m.Get(p.tx, op.Key)
				delta := int64(op.Arg)
				if delta < 0 && v < uint64(-delta) {
					return p.tx.Abort()
				}
				s.m.Put(p.tx, op.Key, v+uint64(delta))
			}
		}
		return nil
	})
}
