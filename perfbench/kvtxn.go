package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"medley/internal/bench"
	"medley/internal/core"
	"medley/internal/structures/mhash"
	"medley/internal/txengine"
)

// kv-txn: the paper's Figure 7 microbenchmark on the unsharded, transient
// Medley engine, with the repository's own Figure 7 generator: keys drawn
// uniformly from 100k, every even key preloaded, 1 to 10 operations per
// transaction at get:insert:remove = 2:1:1. Every key k that is present
// maps to k+1.
var kvWorkload = bench.PaperWorkload(2, 1, 1, 0.1)

const (
	workers = 2 // closed-loop workers: the 2-CPU host's nproc
	warmup  = 500 * time.Millisecond
)

// kvPreloaded calls f with every preloaded key.
func kvPreloaded(f func(k uint64)) {
	for k := uint64(0); k < kvWorkload.KeySpace; k += kvWorkload.KeySpace / uint64(kvWorkload.Preload) {
		f(k)
	}
}

type kvState struct {
	eng txengine.Engine
	m   txengine.Map[uint64]
}

func buildKV() (*kvState, error) {
	eng, err := txengine.Build("medley", txengine.Config{})
	if err != nil {
		return nil, err
	}
	m, err := eng.NewUintMap(txengine.MapSpec{Kind: txengine.KindHash, Buckets: int(kvWorkload.KeySpace)})
	if err != nil {
		eng.Close()
		return nil, err
	}
	tx := eng.NewWorker(-1)
	kvPreloaded(func(k uint64) { m.Put(tx, k, k+1) })
	return &kvState{eng, m}, nil
}

// kvWorker is one closed-loop worker. Its closures are built once so the
// measured loop allocates nothing of its own per transaction.
type kvWorker struct {
	st  *kvState
	tx  txengine.Tx
	rng *rand.Rand
	ops []bench.Op

	rec      *recorder
	runSpan  int32
	ins, rem int64 // this attempt's successful inserts and removes
	applyFn  func()
	runFn    func() error

	committedIns, committedRem int64
	badValues                  uint64
}

func newKVWorker(st *kvState, seed uint64, id int) *kvWorker {
	w := &kvWorker{st: st, tx: st.eng.NewWorker(id), rng: rand.New(rand.NewPCG(seed, uint64(id)+1))}
	w.applyFn = w.apply
	w.runFn = func() error { w.apply(); return nil }
	return w
}

func (w *kvWorker) apply() {
	w.ins, w.rem = 0, 0
	m, tx := w.st.m, w.tx
	for _, op := range w.ops {
		s := w.rec.begin(spOp, w.runSpan)
		switch op.Kind {
		case bench.Get:
			if v, ok := m.Get(tx, op.Key); ok && v != op.Key+1 {
				w.badValues++
			}
		case bench.Insert:
			if m.Insert(tx, op.Key, op.Val) {
				w.ins++
			}
		case bench.Remove:
			if v, ok := m.Remove(tx, op.Key); ok {
				w.rem++
				if v != op.Key+1 {
					w.badValues++
				}
			}
		}
		w.rec.end(s)
	}
}

func (w *kvWorker) unit(rec *recorder) (read, failed bool) {
	w.ops = kvWorkload.GenTx(w.rng, w.ops)
	read = true
	for _, op := range w.ops {
		if op.Kind != bench.Get {
			read = false
			break
		}
	}
	w.rec = rec
	w.runSpan = rec.begin(spRun, -1)
	if read {
		w.tx.RunRead(w.applyFn)
	} else if err := w.tx.Run(w.runFn); err != nil {
		failed = true
	}
	rec.end(w.runSpan)
	if !failed {
		w.committedIns += w.ins
		w.committedRem += w.rem
	}
	return read, failed
}

func runKVTxn(cfg runConfig) (*result, error) {
	res := newResult()
	st, setup, err := medianSetup(setupRuns, buildKV, func(s *kvState) { s.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer st.eng.Close()
	res.e2e["setup_s"] = setup
	res.e2e["heap_mb"] = heapMB()

	ws := make([]*kvWorker, workers)
	units := make([]unitFn, workers)
	for i := range ws {
		ws[i] = newKVWorker(st, cfg.seed, i)
		units[i] = ws[i].unit
	}
	phases := measurePhases(cfg)
	stats := make([]txengine.Stats, len(phases)+1)
	out, recs := closedLoop(units, phases, func(i int) { stats[i] = st.eng.Stats() })
	growth := heapMB() - res.e2e["heap_mb"]
	plain, traced := splitWindows(out, phases)
	res.countUnits(append(plain, traced...))
	res.throughput(plain)
	res.latencies(plain)

	// Output checks: every present key k maps to k+1, and the live-key
	// count is the preload plus committed inserts minus committed removes.
	want := int64(kvWorkload.Preload)
	var bad uint64
	for _, w := range ws {
		want += w.committedIns - w.committedRem
		bad += w.badValues
	}
	tx := st.eng.NewWorker(-1)
	var live int64
	for k := uint64(0); k < kvWorkload.KeySpace; k++ {
		if v, ok := st.m.Get(tx, k); ok {
			live++
			if v != k+1 {
				bad++
			}
		}
	}
	res.checkf(bad == 0, "kv-txn: %d values differ from key+1", bad)
	res.checkf(live == want, "kv-txn: %d live keys, want preload+inserts-removes = %d", live, want)

	if cfg.trace {
		res.layer["heap.growth_mb"] = growth
		lt := selfTimes(recs)
		res.recs = recs
		res.layer["structures.op_ns"] = lt.selfNs(spOp)
		res.layer["core.commit_ns"] = lt.selfNs(spRun)
		res.engineLayers(stats[len(stats)-1].Delta(stats[1]))
		res.overhead(plain, traced)
		compose, adapter, err := ladder(cfg.seed, 100*time.Millisecond)
		if err != nil {
			return nil, err
		}
		res.layer["core.compose_ratio"] = compose
		res.layer["txengine.adapter_ns"] = adapter
		res.idle("sharded.hint_ns", "montage.op_ns", "pnvm.writes_per_commit", "pnvm.writebacks_per_commit",
			"pnvm.fences_per_commit", "pnvm.records_per_key", "recovery.dump_ms", "recovery.rebuild_ms",
			"recovery.total_ms")
		res.idleServer()
	}
	return res, nil
}

// ladder times one fixed list of generated transactions three ways on a
// single goroutine, each over its own preloaded hash map: bare mhash
// operations with no transaction, the same operations inside
// core.Session.Run, and inside a Medley engine's Tx.Run. It returns the
// composition ratio (core Run over bare operations, the paper's Figure 10
// TxOn/TxOff) and the adapter's cost per transaction (engine Run minus
// core Run). Rungs alternate for several rounds; each reports its median.
func ladder(seed uint64, rungDur time.Duration) (composeRatio, adapterNs float64, err error) {
	rng := rand.New(rand.NewPCG(seed, 0x1adde7))
	txns := make([][]bench.Op, 4096)
	for i := range txns {
		txns[i] = kvWorkload.GenTx(rng, nil)
	}
	s := core.NewTxManager().Session()
	bare := func() *mhash.Map[uint64, uint64] {
		m := mhash.NewUint64[uint64](int(kvWorkload.KeySpace))
		kvPreloaded(func(k uint64) { m.Put(s, k, k+1) })
		return m
	}
	off, on := bare(), bare()
	st, err := buildKV()
	if err != nil {
		return 0, 0, err
	}
	defer st.eng.Close()
	tx := st.eng.NewWorker(0)

	applyBare := func(m *mhash.Map[uint64, uint64], ops []bench.Op) {
		for _, op := range ops {
			switch op.Kind {
			case bench.Get:
				m.Get(s, op.Key)
			case bench.Insert:
				m.Insert(s, op.Key, op.Val)
			case bench.Remove:
				m.Remove(s, op.Key)
			}
		}
	}
	var cur []bench.Op
	onFn := func() error { applyBare(on, cur); return nil }
	engFn := func() error {
		for _, op := range cur {
			switch op.Kind {
			case bench.Get:
				st.m.Get(tx, op.Key)
			case bench.Insert:
				st.m.Insert(tx, op.Key, op.Val)
			case bench.Remove:
				st.m.Remove(tx, op.Key)
			}
		}
		return nil
	}
	rungs := []func() error{
		func() error { applyBare(off, cur); return nil },
		func() error { return s.Run(onFn) },
		func() error { return tx.Run(engFn) },
	}
	const rounds = 5
	per := make([][]float64, len(rungs))
	for r := 0; r < rounds; r++ {
		for i, rung := range rungs {
			n := 0
			t0 := time.Now()
			for time.Since(t0) < rungDur {
				for _, ops := range txns[n%len(txns) : n%len(txns)+256] {
					cur = ops
					if err := rung(); err != nil {
						return 0, 0, fmt.Errorf("ladder rung %d: %w", i, err)
					}
				}
				n += 256
			}
			per[i] = append(per[i], float64(time.Since(t0).Nanoseconds())/float64(n))
		}
	}
	offNs, onNs, engNs := median(per[0]), median(per[1]), median(per[2])
	return onNs / offNs, engNs - onNs, nil
}
