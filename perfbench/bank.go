package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"medley/internal/pnvm"
	"medley/internal/txengine"
)

// bank-durable: hinted transfers on txmontage-sharded with the default
// simulated-NVM latencies. Account a keeps its checking balance at key a
// and its savings at key bankAccounts+a of one map, so recovery audits a
// single map. Accounts are drawn Zipf(bankZipf); one unit in ten is a
// read-only audit of auditAccounts accounts, the rest move 1..bankMaxAmt
// from one balance to another and business-abort on insufficient funds.
//
// Opening balances are far above what a minute of transfers can drain, and
// one transfer in overdraftEvery asks for more money than exists, so the
// business-abort share is a property of the workload rather than of the
// seed's random walk of the hot balances (with small balances it moved
// throughput by a quarter between seeds).
const (
	bankAccounts   = 1024
	bankKeys       = 2 * bankAccounts
	bankOpening    = 1_000_000
	bankMaxAmt     = 50
	overdraftEvery = 50
	bankShards     = 4
	bankEpoch      = 10 * time.Millisecond
	bankZipf       = 1.3
	auditAccounts  = 4
)

var bankSpec = txengine.MapSpec{Kind: txengine.KindHash, Buckets: 4096}

func bankConfig(devs []*pnvm.Device) txengine.Config {
	return txengine.Config{Latencies: pnvm.DefaultLatencies(), Shards: bankShards, EpochLen: bankEpoch, Devices: devs}
}

type bankState struct {
	eng txengine.Engine
	p   txengine.Persister
	m   txengine.Map[uint64]
}

func buildBank() (*bankState, error) {
	eng, err := txengine.Build("txmontage-sharded", bankConfig(nil))
	if err != nil {
		return nil, err
	}
	p, ok := eng.(txengine.Persister)
	if !ok || len(p.Devices()) != bankShards {
		eng.Close()
		return nil, fmt.Errorf("txmontage-sharded exposes no device per shard")
	}
	m, err := eng.NewUintMap(bankSpec)
	if err != nil {
		eng.Close()
		return nil, err
	}
	tx := eng.NewWorker(-1)
	for k := uint64(0); k < bankKeys; k++ {
		m.Put(tx, k, bankOpening)
	}
	return &bankState{eng, p, m}, nil
}

type bankWorker struct {
	st   *bankState
	tx   txengine.Tx
	rng  *rand.Rand
	zipf *rand.Zipf

	keys       [2 * auditAccounts]uint64
	nkeys      int
	amt        uint64
	rec        *recorder
	runSpan    int32
	transferFn func() error
	auditFn    func() error
}

func newBankWorker(st *bankState, seed uint64, id int) *bankWorker {
	rng := rand.New(rand.NewPCG(seed, uint64(id)+1))
	w := &bankWorker{st: st, tx: st.eng.NewWorker(id), rng: rng,
		zipf: rand.NewZipf(rng, bankZipf, 1, bankAccounts-1)}
	w.transferFn = w.transfer
	w.auditFn = w.audit
	return w
}

// balanceKey picks account a's checking or savings key.
func (w *bankWorker) balanceKey(a uint64) uint64 {
	if w.rng.IntN(2) == 0 {
		return a
	}
	return bankAccounts + a
}

func (w *bankWorker) get(k uint64) uint64 {
	s := w.rec.begin(spOp, w.runSpan)
	v, _ := w.st.m.Get(w.tx, k)
	w.rec.end(s)
	return v
}

func (w *bankWorker) put(k, v uint64) {
	s := w.rec.begin(spOp, w.runSpan)
	w.st.m.Put(w.tx, k, v)
	w.rec.end(s)
}

func (w *bankWorker) transfer() error {
	src, dst := w.keys[0], w.keys[1]
	sv := w.get(src)
	if sv < w.amt {
		return w.tx.Abort()
	}
	dv := w.get(dst)
	w.put(src, sv-w.amt)
	w.put(dst, dv+w.amt)
	return nil
}

func (w *bankWorker) audit() error {
	for _, k := range w.keys[:w.nkeys] {
		w.get(k)
	}
	return nil
}

func (w *bankWorker) unit(rec *recorder) (read, failed bool) {
	w.rec = rec
	root := rec.begin(spTxn, -1)
	read = w.rng.IntN(10) == 0
	fn := w.transferFn
	if read {
		for i := 0; i < auditAccounts; i++ {
			a := w.zipf.Uint64()
			w.keys[2*i], w.keys[2*i+1] = a, bankAccounts+a
		}
		w.nkeys = 2 * auditAccounts
		fn = w.auditFn
	} else {
		a, b := w.zipf.Uint64(), w.zipf.Uint64()
		if a == b {
			b = (a + 1) % bankAccounts
		}
		w.keys[0], w.keys[1] = w.balanceKey(a), w.balanceKey(b)
		w.nkeys = 2
		w.amt = 1 + w.rng.Uint64N(bankMaxAmt)
		if w.rng.IntN(overdraftEvery) == 0 {
			w.amt = bankKeys*bankOpening + 1
		}
	}
	h := rec.begin(spHint, root)
	txengine.HintKeys(w.tx, w.keys[:w.nkeys]...)
	rec.end(h)
	w.runSpan = rec.begin(spRun, root)
	err := w.tx.Run(fn)
	rec.end(w.runSpan)
	rec.end(root)
	// An insufficient-funds business abort is a completed transfer attempt.
	return read, err != nil && !errors.Is(err, txengine.ErrBusinessAbort)
}

// bankSnap is one boundary's engine and device counters.
type bankSnap struct {
	stats                     txengine.Stats
	writes, writeBacks, fence uint64
}

func (st *bankState) snap() bankSnap {
	s := bankSnap{stats: st.eng.Stats()}
	for _, d := range st.p.Devices() {
		w, wb, f := d.Stats()
		s.writes += w
		s.writeBacks += wb
		s.fence += f
	}
	return s
}

func runBank(cfg runConfig) (*result, error) {
	res := newResult()
	st, setup, err := medianSetup(setupRuns, buildBank, func(s *bankState) { s.eng.Close() })
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	res.e2e["heap_mb"] = heapMB()

	ws := make([]*bankWorker, workers)
	units := make([]unitFn, workers)
	for i := range ws {
		ws[i] = newBankWorker(st, cfg.seed, i)
		units[i] = ws[i].unit
	}
	phases := measurePhases(cfg)
	snaps := make([]bankSnap, len(phases)+1)
	out, recs := closedLoop(units, phases, func(i int) { snaps[i] = st.snap() })
	growth := heapMB() - res.e2e["heap_mb"]
	plain, traced := splitWindows(out, phases)
	res.countUnits(append(plain, traced...))
	res.throughput(plain)
	res.latencies(plain)

	// Money is conserved in memory: one transaction reads every balance.
	tx := st.eng.NewWorker(-1)
	mem := make([]uint64, bankKeys)
	if err := tx.Run(func() error {
		for k := range mem {
			mem[k], _ = st.m.Get(tx, uint64(k))
		}
		return nil
	}); err != nil {
		st.eng.Close()
		return nil, fmt.Errorf("reading balances: %w", err)
	}
	res.checkf(sum(mem) == bankKeys*bankOpening, "bank-durable: in-memory total %d, want %d", sum(mem), bankKeys*bankOpening)

	// Make everything durable, crash every device, and recover the map on a
	// fresh engine over the survivors: it must equal the in-memory state.
	st.p.Sync()
	devs := st.p.Devices()
	records := 0
	for _, d := range devs {
		records += d.Live()
	}
	st.eng.Close()
	t0 := time.Now()
	dumps := pnvm.DumpAll(devs)
	t1 := time.Now()
	eng2, err := txengine.Build("txmontage-sharded", bankConfig(devs))
	if err != nil {
		return nil, fmt.Errorf("rebuilding engine: %w", err)
	}
	defer eng2.Close()
	rm, err := eng2.(txengine.Persister).RecoverUintMap(dumps, bankSpec)
	if err != nil {
		return nil, fmt.Errorf("recovering map: %w", err)
	}
	t2 := time.Now()
	tx2 := eng2.NewWorker(-1)
	mismatched := 0
	rec := make([]uint64, bankKeys)
	for k := range rec {
		v, ok := rm.Get(tx2, uint64(k))
		rec[k] = v
		if !ok || v != mem[k] {
			mismatched++
		}
	}
	res.checkf(sum(rec) == bankKeys*bankOpening, "bank-durable: recovered total %d, want %d", sum(rec), bankKeys*bankOpening)
	res.checkf(mismatched == 0, "bank-durable: %d recovered balances differ from the synced in-memory state", mismatched)

	if cfg.trace {
		res.layer["heap.growth_mb"] = growth
		lt := selfTimes(recs)
		res.recs = recs
		first, last := snaps[1], snaps[len(snaps)-1]
		d := last.stats.Delta(first.stats)
		c := float64(d.Commits)
		res.layer["montage.op_ns"] = lt.selfNs(spOp)
		res.layer["core.commit_ns"] = lt.selfNs(spRun)
		res.layer["sharded.hint_ns"] = lt.selfNs(spHint)
		res.engineLayers(d)
		res.layer["pnvm.writes_per_commit"] = ratio(float64(last.writes-first.writes), c)
		res.layer["pnvm.writebacks_per_commit"] = ratio(float64(last.writeBacks-first.writeBacks), c)
		res.layer["pnvm.fences_per_commit"] = ratio(float64(last.fence-first.fence), c)
		res.layer["pnvm.records_per_key"] = float64(records) / bankKeys
		res.layer["recovery.dump_ms"] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
		res.layer["recovery.rebuild_ms"] = float64(t2.Sub(t1).Nanoseconds()) / 1e6
		res.layer["recovery.total_ms"] = float64(t2.Sub(t0).Nanoseconds()) / 1e6
		res.overhead(plain, traced)
		res.idle("structures.op_ns", "core.compose_ratio", "txengine.adapter_ns")
		res.idleServer()
	}
	return res, nil
}

func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}
