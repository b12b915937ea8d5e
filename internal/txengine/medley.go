package txengine

import (
	"errors"
	"fmt"

	"medley/internal/core"
	"medley/internal/montage"
	"medley/internal/pnvm"
	"medley/internal/structures/fskiplist"
	"medley/internal/structures/mhash"
	"medley/internal/structures/msqueue"
	"medley/internal/txmap"
)

const medleyCaps = CapTx | CapDynamicTx | CapNoTx | CapHashMap | CapSkipMap | CapRowMaps | CapQueue | CapSnapshot

// medleyEngine drives Medley transactional maps; with an epoch system
// attached it is txMontage (Medley + periodic persistence over the
// simulated NVM device).
type medleyEngine struct {
	name    string
	mgr     *core.TxManager
	es      *montage.EpochSys // non-nil for txMontage
	codec   montage.Codec[any]
	started bool
	snap    *snapTier // MVCC snapshot tier; nil when Config.snapOff (sharded sub-engines)
	ct      counters
}

func newMedleyEngine(cfg Config) (Engine, error) {
	e := &medleyEngine{name: "Medley", mgr: core.NewTxManager()}
	if !cfg.snapOff {
		e.snap = newSnapTier(nil)
	}
	return e, nil
}

func newTxMontageEngine(cfg Config) (Engine, error) {
	mgr := core.NewTxManager()
	if len(cfg.Devices) > 1 {
		return nil, fmt.Errorf("txengine: txmontage is single-device (got %d devices); use txmontage-sharded for multi-device persistence", len(cfg.Devices))
	}
	var dev *pnvm.Device
	if len(cfg.Devices) == 1 {
		dev = cfg.Devices[0]
	} else {
		dev = pnvm.New(cfg.Latencies)
	}
	var es *montage.EpochSys
	if cfg.EpochClock != nil {
		// Shared clock: the clock's owner (the sharded coordinator) drives
		// the advance cadence for every system on it; starting a private
		// advancer here would flush this shard's batches at boundaries the
		// other shards never reach.
		es = montage.NewEpochSysShared(dev, cfg.EpochClock)
	} else {
		es = montage.NewEpochSys(dev)
	}
	montage.Attach(mgr, es)
	e := &medleyEngine{name: "txMontage", mgr: mgr, es: es, codec: cfg.RowCodec}
	if !cfg.snapOff {
		// Anchor commit timestamps to the same clock that orders epoch cuts.
		e.snap = newSnapTier(es.Clock())
	}
	if cfg.EpochLen > 0 && cfg.EpochClock == nil {
		es.Start(cfg.EpochLen)
		e.started = true
	}
	return e, nil
}

func (e *medleyEngine) Name() string { return e.name }
func (e *medleyEngine) Caps() Caps   { return medleyCaps }
func (e *medleyEngine) Stats() Stats { return e.ct.snapshot() }

func (e *medleyEngine) Close() {
	if e.started {
		e.es.Stop()
	}
}

// EpochSys exposes the montage epoch system (nil for transient Medley), for
// recovery demos and persistence tests.
func (e *medleyEngine) EpochSys() *montage.EpochSys { return e.es }

// Devices implements Persister (nil for transient Medley).
func (e *medleyEngine) Devices() []*pnvm.Device {
	if e.es == nil {
		return nil
	}
	return []*pnvm.Device{e.es.Device()}
}

// Sync implements Persister: an epoch-boundary sync, after which everything
// committed so far is durable.
func (e *medleyEngine) Sync() {
	if e.es != nil {
		e.es.Sync()
	}
}

// RecoverUintMap implements Persister: rebuilds a map from the live
// payloads of this engine's one device's post-crash dump, at the device's
// epoch-consistent cut (its durable frontier); the device is scrubbed of
// beyond-cut state and the clock re-anchored past the cut, so the engine —
// and a possible second crash — continue from a clean boundary.
func (e *medleyEngine) RecoverUintMap(dumps [][]pnvm.Record, spec MapSpec) (Map[uint64], error) {
	if e.es == nil {
		return nil, fmt.Errorf("txengine: %s is transient: %w", e.name, ErrUnsupported)
	}
	if len(dumps) != 1 {
		// Record ids are per-device counters, so a foreign device's dump
		// would alias this device's ids and the scrub would corrupt media.
		return nil, fmt.Errorf("txengine: %s recovery wants exactly one dump for its one device: got %d", e.name, len(dumps))
	}
	cut := montage.ConsistentCut(dumps)
	montage.ReanchorAll(e.es.Clock(), []*montage.EpochSys{e.es}, dumps, cut)
	live := montage.LiveRecordsAt(dumps[0], cut)
	var inner Map[uint64]
	if spec.Kind == KindHash {
		inner = txmapAdapter[uint64]{montage.RecoverHashMap(e.es, montage.Uint64Codec(), bucketsOr(spec, 1<<16), live)}
	} else {
		inner = txmapAdapter[uint64]{montage.RecoverSkipMap(e.es, montage.Uint64Codec(), live)}
	}
	return e.wrapRecoveredUint(inner, live), nil
}

// wrapRecoveredUint attaches the snapshot sidecar to a recovered map and
// seeds every live record into the version chains. Seeding is mandatory: a
// chain miss means "absent at the cut", so an unseeded recovered key would
// read as missing from every snapshot until its first post-recovery write.
func (e *medleyEngine) wrapRecoveredUint(inner Map[uint64], live []montage.RecordView) Map[uint64] {
	if e.snap == nil {
		return inner
	}
	ch := &snapChains{tier: e.snap}
	dec := montage.Uint64Codec().Dec
	for _, r := range live {
		ch.seed(r.Key, dec(r.Val), nil)
	}
	return snapMap[uint64]{
		inner: inner,
		ch:    ch,
		enc:   func(v uint64) (uint64, any) { return v, nil },
		dec:   func(u uint64, _ any) uint64 { return u },
	}
}

// wrapUint / wrapRow attach the per-map snapshot sidecar when the engine
// carries the MVCC tier.
func (e *medleyEngine) wrapUint(inner Map[uint64]) Map[uint64] {
	if e.snap == nil {
		return inner
	}
	return newSnapUintMap(inner, &snapChains{tier: e.snap})
}

func (e *medleyEngine) wrapRow(inner Map[any]) Map[any] {
	if e.snap == nil {
		return inner
	}
	return newSnapRowMap(inner, &snapChains{tier: e.snap})
}

func (e *medleyEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	if e.es != nil {
		if spec.Kind == KindHash {
			return e.wrapUint(txmapAdapter[uint64]{montage.NewHashMap(e.es, montage.Uint64Codec(), bucketsOr(spec, 1<<16))}), nil
		}
		return e.wrapUint(txmapAdapter[uint64]{montage.NewSkipMap(e.es, montage.Uint64Codec())}), nil
	}
	if spec.Kind == KindHash {
		return e.wrapUint(txmapAdapter[uint64]{mhash.NewUint64[uint64](bucketsOr(spec, 1<<16))}), nil
	}
	return e.wrapUint(txmapAdapter[uint64]{fskiplist.New[uint64, uint64]()}), nil
}

func (e *medleyEngine) NewRowMap(spec MapSpec) (Map[any], error) {
	if e.es != nil {
		if e.codec.Enc == nil || e.codec.Dec == nil {
			return nil, fmt.Errorf("txengine: txmontage row maps need Config.RowCodec")
		}
		if spec.Kind == KindHash {
			return e.wrapRow(txmapAdapter[any]{montage.NewHashMap(e.es, e.codec, bucketsOr(spec, 1<<16))}), nil
		}
		return e.wrapRow(txmapAdapter[any]{montage.NewSkipMap(e.es, e.codec)}), nil
	}
	if spec.Kind == KindHash {
		return e.wrapRow(txmapAdapter[any]{mhash.NewUint64[any](bucketsOr(spec, 1<<16))}), nil
	}
	return e.wrapRow(txmapAdapter[any]{fskiplist.New[uint64, any]()}), nil
}

// NewUintQueue returns an NBTC-transformed Michael & Scott queue. The queue
// itself is transient even under txMontage: the paper's queue carries no
// payload persistence, and composition with persistent maps stays atomic.
func (e *medleyEngine) NewUintQueue() (Queue[uint64], error) {
	return msQueueAdapter{q: msqueue.New[uint64]()}, nil
}

func (e *medleyEngine) NewWorker(int) Tx {
	t := &sessionTx{s: e.mgr.Session(), ct: &e.ct}
	if e.snap != nil {
		t.snap.tier = e.snap
		t.snap.slot = e.snap.newSlot()
	}
	return t
}

func bucketsOr(spec MapSpec, def int) int {
	if spec.Buckets > 0 {
		return spec.Buckets
	}
	return def
}

// sessionTx adapts a core.Session to the Tx interface. Medley operations
// are usable both inside and outside transactions, so NoTx is genuinely
// uninstrumented.
type sessionTx struct {
	s    *core.Session
	ct   *counters
	snap snapAgent
	bo   backoff
}

func (t *sessionTx) Run(fn func() error) error {
	if !t.snap.enabled() {
		return t.ct.countRun(t.s.Run, fn)
	}
	return t.ct.countRun(t.runStamped, fn)
}

// runStamped is core.Session.Run with version stamping folded into the
// commit: the loop shape (and therefore the stats contract countRun builds
// on it) is identical, but a successful commit publishes the attempt's
// buffered writes at one drawn timestamp.
func (t *sessionTx) runStamped(fn func() error) error {
	for attempt := 0; ; attempt++ {
		t.snap.reset()
		t.s.TxBegin()
		err := fn()
		if err == nil {
			if !t.s.InTx() {
				// fn aborted explicitly but returned nil; treat as conflict.
				err = core.ErrTxAborted
			} else {
				err = t.commitStamped()
				if err == nil {
					return nil
				}
			}
		} else if t.s.InTx() {
			t.s.TxAbort()
		}
		if !errors.Is(err, core.ErrTxAborted) {
			return err
		}
		t.bo.wait(attempt)
	}
}

// commitStamped draws the commit timestamp — after fn installed every node,
// before TxEnd's InPrep→InProg transition, which is what keeps timestamp
// order consistent with conflict order (see snapshot.go) — commits, and on
// success publishes the buffered writes under that timestamp. Read-only
// transactions buffer nothing and skip the draw entirely.
func (t *sessionTx) commitStamped() error {
	if len(t.snap.pending) == 0 {
		return t.s.TxEnd()
	}
	ts := t.snap.tier.beginCommit(t.snap.slot)
	err := t.s.TxEnd()
	if err == nil {
		t.snap.publishAll(ts)
	} else {
		t.snap.reset()
	}
	t.snap.tier.endCommit(t.snap.slot)
	return err
}

// SnapshotRead implements SnapshotReader: fn runs against the tier's sealed
// cut, validation-free. Illegal inside an open transaction (the snapshot
// would not see the transaction's own writes).
func (t *sessionTx) SnapshotRead(fn func()) bool {
	if !t.snap.enabled() {
		return false
	}
	if t.s.InTx() {
		panic("txengine: SnapshotRead inside an open transaction")
	}
	rt, stale := t.snap.tier.beginSnapshot(t.snap.slot)
	t.snap.rt = rt
	defer func() {
		t.snap.rt = 0
		t.snap.tier.endSnapshot(t.snap.slot)
	}()
	fn()
	t.ct.countSnapshot(stale)
	return true
}

// SnapshotReadBatch implements SnapshotBatchReader: one pinned cut serves n
// read-only closures, each its own logical snapshot transaction, with the
// pin/seal/GC-floor bookkeeping paid once for the batch.
func (t *sessionTx) SnapshotReadBatch(n int, each func(int, uint64)) (uint64, bool) {
	if !t.snap.enabled() {
		return 0, false
	}
	if t.s.InTx() {
		panic("txengine: SnapshotReadBatch inside an open transaction")
	}
	rt, stale := t.snap.tier.beginSnapshot(t.snap.slot)
	t.snap.rt = rt
	defer func() {
		t.snap.rt = 0
		t.snap.tier.endSnapshot(t.snap.slot)
	}()
	for i := 0; i < n; i++ {
		each(i, rt)
	}
	t.ct.countSnapshotN(stale, uint64(n))
	return rt, true
}

// snapAgent / snapBuffering implement the snapTxn seam for snapMap: writes
// are buffered whenever a transaction is open on the session.
func (t *sessionTx) snapAgent() *snapAgent { return &t.snap }
func (t *sessionTx) snapBuffering() bool   { return t.s.InTx() }

func (t *sessionTx) RunRead(fn func()) {
	_ = t.Run(func() error { fn(); return nil })
}

func (t *sessionTx) NoTx(fn func()) { fn() }

func (t *sessionTx) Abort() error {
	if t.s.InTx() {
		t.s.TxAbort()
	}
	return ErrBusinessAbort
}

// txmapAdapter lifts any session-based txmap.Map (the Medley structures and
// the montage persistent maps) to an engine Map.
type txmapAdapter[V any] struct{ m txmap.Map[V] }

func (a txmapAdapter[V]) Get(tx Tx, k uint64) (V, bool) { return a.m.Get(tx.(*sessionTx).s, k) }
func (a txmapAdapter[V]) Put(tx Tx, k uint64, v V) (V, bool) {
	return a.m.Put(tx.(*sessionTx).s, k, v)
}
func (a txmapAdapter[V]) Insert(tx Tx, k uint64, v V) bool {
	return a.m.Insert(tx.(*sessionTx).s, k, v)
}
func (a txmapAdapter[V]) Remove(tx Tx, k uint64) (V, bool) { return a.m.Remove(tx.(*sessionTx).s, k) }

// msQueueAdapter lifts the session-based M&S queue to an engine Queue.
// Queues carry no version chains, so queue operations inside a snapshot
// panic like writes do.
type msQueueAdapter struct{ q *msqueue.Queue[uint64] }

func (a msQueueAdapter) Enqueue(tx Tx, v uint64) {
	t := tx.(*sessionTx)
	if t.snap.rt != 0 {
		panic("txengine: queue operation inside SnapshotRead (queues are unversioned)")
	}
	a.q.Enqueue(t.s, v)
}
func (a msQueueAdapter) Dequeue(tx Tx) (uint64, bool) {
	t := tx.(*sessionTx)
	if t.snap.rt != 0 {
		panic("txengine: queue operation inside SnapshotRead (queues are unversioned)")
	}
	return a.q.Dequeue(t.s)
}
