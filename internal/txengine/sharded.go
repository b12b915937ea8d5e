package txengine

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"medley/internal/core"
	"medley/internal/montage"
	"medley/internal/pnvm"
)

// This file implements the sharded engine runtime: a registry-composable
// decorator that wraps S independent instances of a base engine (each with
// its own TxManager, session list, and structures) and hash-routes every
// map key to its owning shard. Every transaction is optimistic and there is
// one commit protocol, whatever the transaction's footprint:
//
//   - The first shard a Run's attempt touches opens a solo sub-transaction
//     on that shard's session. A Run that stays on one shard commits it with
//     a plain core commit — no group, no epoch guard — so single-shard
//     transactions scale with the shard count instead of funneling through
//     one manager.
//   - Each further shard the attempt touches opens a sub-transaction that
//     joins the first one (core.Session.TxJoin) before its first install:
//     the follower uses the leader's status word, and the leader's
//     validation and sweep scope covers its followers. The group commits
//     with one atomic verdict (core.Session.TxEndGroup), so a multi-shard
//     commit is all-or-nothing even though concurrent single-shard traffic
//     can invalidate any member's reads up to the last moment — that just
//     aborts the whole group, which retries. No shard is ever locked, and no
//     attempt ever restarts to discover its footprint: the group simply grows
//     as the transaction reaches new shards.
//
// Multi-shard Runs whose keys were pre-declared (HintKeys/HintQueues, see
// footprint.go) additionally take FIFO key latches for the attempt's
// duration (latch.go): a scheduler that queues hinted transactions with
// overlapping keys instead of letting them abort each other. Atomicity does
// not depend on the latches.
//
// Transactional bases are the Medley family, whose worker handles are
// sessionTx: the decorator drives their core sessions directly so that one
// logical transaction can hold open sub-transactions on several shards at
// once. Engines without transactions (Original) shard trivially, routing
// bare operations.
//
// # Sharded persistence (txmontage-sharded)
//
// Persistent bases compose too: every shard owns its own montage.EpochSys
// and pnvm.Device, but all of them share one montage.EpochClock, created
// here and passed down through Config.EpochClock. The shared clock is what
// makes durability shard-safe: a cross-shard transaction pins the same
// epoch number on every shard it touches, its group commit runs under the
// clock's commit guard (no advance can interleave, and a pre-check aborts
// cleanly if the sub-transactions straddle two epochs), and
// the coordinator — the engine's own advancer goroutine, or Sync — advances
// all shards together so every device reaches the same durable frontier.
// After a crash, recovery takes one dump per device, computes the domain's
// consistent cut (the minimum of the per-device durable frontiers), and
// rebuilds each shard at exactly that cut: state one device persisted ahead
// of the others is discarded, so a transaction is never recovered torn even
// when the crash lands between two shards' flushes.

// DefaultShards is the shard count used when Config.Shards is unset.
const DefaultShards = 4

type shardedEngine struct {
	name   string
	caps   Caps
	txCap  bool
	shards []Engine
	nextQ  atomic.Uint64 // round-robin home-shard assignment for queues
	ct     counters
	latch  *latchTable // FIFO key latches for hinted multi-shard Runs; nil without transactions
	snap   *snapTier   // the engine's single MVCC snapshot tier; nil without CapSnapshot

	// Persistence coordination (nil/empty when the base is transient): the
	// shared epoch clock, each shard's epoch system and device in shard
	// order, and the coordinator advancer's lifecycle channels.
	clock *montage.EpochClock
	esys  []*montage.EpochSys
	devs  []*pnvm.Device
	stop  chan struct{}
	done  chan struct{}
}

// epochSysProvider is the seam through which the decorator recognizes
// montage-backed bases and reaches their per-shard epoch systems.
type epochSysProvider interface{ EpochSys() *montage.EpochSys }

// newShardedEngine builds cfg.Shards independent instances of the named
// base engine behind one sharded façade. Persistent (montage-backed) bases
// are built one device per shard on a shared epoch clock; cfg.Devices, when
// non-empty, supplies the per-shard devices (recovery reattachment) and
// must be index-aligned with the shard order.
func newShardedEngine(baseKey string, cfg Config) (Engine, error) {
	b, ok := Lookup(baseKey)
	if !ok {
		return nil, fmt.Errorf("txengine: sharded base %q not registered", baseKey)
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	if len(cfg.Devices) > 0 && len(cfg.Devices) != n {
		return nil, fmt.Errorf("txengine: sharded %s wants one device per shard: got %d devices for %d shards", baseKey, len(cfg.Devices), n)
	}
	clock := cfg.EpochClock
	if clock == nil {
		clock = montage.NewEpochClock()
	}
	sub := cfg
	sub.EpochClock = clock
	sub.EpochLen = 0 // the coordinator owns the advance cadence, not the shards
	// The decorator owns the one snapshot tier and wraps only its top-level
	// maps; sub-engines must not each run a private clock, or a cross-shard
	// transaction would stamp S unrelated timestamps.
	sub.snapOff = true
	e := &shardedEngine{caps: b.Caps, txCap: b.Caps.Has(CapTx)}
	for i := 0; i < n; i++ {
		c := sub
		if len(cfg.Devices) > 0 {
			c.Devices = cfg.Devices[i : i+1]
		} else {
			c.Devices = nil
		}
		shard, err := b.New(c)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("txengine: sharded %s shard %d: %w", baseKey, i, err)
		}
		e.shards = append(e.shards, shard)
	}
	e.name = fmt.Sprintf("%s-sh%d", e.shards[0].Name(), n)
	if e.txCap {
		e.latch = newLatchTable()
	}

	// Detect montage-backed shards: all of them share clock, so the engine
	// coordinates their epochs and implements the multi-device Persister.
	for _, sh := range e.shards {
		esp, ok := sh.(epochSysProvider)
		if !ok || esp.EpochSys() == nil {
			break
		}
		e.esys = append(e.esys, esp.EpochSys())
		e.devs = append(e.devs, esp.EpochSys().Device())
	}
	if len(e.esys) == len(e.shards) {
		e.clock = clock
		if cfg.EpochLen > 0 {
			e.startCoordinator(cfg.EpochLen)
		}
	} else {
		e.esys, e.devs = nil, nil
	}
	if e.txCap && e.caps.Has(CapSnapshot) && !cfg.snapOff {
		// One tier for the whole engine: every commit — single-shard or a
		// shared-fate group — draws exactly one timestamp from it. Anchored
		// to the shared epoch clock on persistent bases.
		var ec *montage.EpochClock
		if e.clock != nil {
			ec = e.clock
		}
		e.snap = newSnapTier(ec)
	}
	return e, nil
}

// startCoordinator launches the background epoch advancer that moves every
// shard's epoch system forward together (the sharded analogue of
// montage.EpochSys.Start).
func (e *shardedEngine) startCoordinator(period time.Duration) {
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				montage.AdvanceTogether(e.clock, e.esys)
			}
		}
	}()
}

func (e *shardedEngine) Name() string { return e.name }
func (e *shardedEngine) Caps() Caps   { return e.caps }

// NumShards reports the shard count (for tests and CLI reporting).
func (e *shardedEngine) NumShards() int { return len(e.shards) }

// Stats aggregates the decorator's own transaction accounting with every
// shard's engine stats (standalone-op accounting on bases that keep it).
func (e *shardedEngine) Stats() Stats {
	total := e.ct.snapshot()
	for _, sh := range e.shards {
		total.Add(sh.Stats())
	}
	return total
}

func (e *shardedEngine) Close() {
	if e.stop != nil {
		close(e.stop)
		<-e.done
		e.stop = nil
	}
	for _, sh := range e.shards {
		sh.Close()
	}
}

// Devices implements Persister: every shard's device in shard order, or nil
// when the base engine is transient.
func (e *shardedEngine) Devices() []*pnvm.Device {
	if len(e.devs) == 0 {
		return nil
	}
	out := make([]*pnvm.Device, len(e.devs))
	copy(out, e.devs)
	return out
}

// Sync implements Persister: two coordinated advances move every shard past
// the current epoch together, so when Sync returns each transaction
// committed before the call is durable on all of its shards — one mutually
// consistent boundary, not S independent ones.
func (e *shardedEngine) Sync() {
	if e.clock == nil {
		return
	}
	montage.SyncTogether(e.clock, e.esys)
}

// RecoverUintMap implements Persister: merge S post-crash device dumps into
// one logical map. The domain's consistent cut is the minimum of the
// per-device durable frontiers; each shard's dump is trimmed to that cut
// (so a device that flushed ahead of the others contributes nothing beyond
// it) and then recovered through the shard's own engine. Requires one dump
// per shard, in shard order — i.e. the same shard count the state was
// written under.
func (e *shardedEngine) RecoverUintMap(dumps [][]pnvm.Record, spec MapSpec) (Map[uint64], error) {
	if e.clock == nil {
		return nil, fmt.Errorf("txengine: %s is transient: %w", e.name, ErrUnsupported)
	}
	if len(dumps) != len(e.shards) {
		return nil, fmt.Errorf("txengine: %s recovery wants one dump per shard: got %d dumps for %d shards", e.name, len(dumps), len(e.shards))
	}
	// Every shard recovers its own dump at the *global* cut (not its
	// device's possibly-further frontier); the devices are scrubbed of
	// beyond-cut state and the shared clock re-anchored past the cut, so a
	// second crash cannot resurrect what this recovery discarded.
	cut := montage.ConsistentCut(dumps)
	montage.ReanchorAll(e.clock, e.esys, dumps, cut)
	sub := make([]Map[uint64], len(e.shards))
	subSpec := e.subSpec(spec)
	u64 := montage.Uint64Codec()
	for i := range e.shards {
		live := montage.LiveRecordsAt(dumps[i], cut)
		if spec.Kind == KindHash {
			sub[i] = txmapAdapter[uint64]{montage.RecoverHashMap(e.esys[i], u64, bucketsOr(subSpec, 1<<16), live)}
		} else {
			sub[i] = txmapAdapter[uint64]{montage.RecoverSkipMap(e.esys[i], u64, live)}
		}
	}
	inner := &shardedMap[uint64]{e: e, sub: sub}
	if e.snap == nil {
		return inner, nil
	}
	// Seed every recovered record into the snapshot sidecar at the tier's
	// base cut: a chain miss means "absent", so unseeded recovered keys
	// would vanish from snapshots until their first post-recovery write.
	ch := &snapChains{tier: e.snap}
	for i := range e.shards {
		for _, r := range montage.LiveRecordsAt(dumps[i], cut) {
			ch.seed(r.Key, u64.Dec(r.Val), nil)
		}
	}
	return newSnapUintMap(inner, ch), nil
}

// shardOf routes a key to its owning shard: Fibonacci hashing spreads
// sequential keys uniformly, and the multiply-high range reduction maps the
// hash onto [0, shards) without the integer division a modulo would cost on
// every operation. Worker handles additionally memoize recent routes
// (shardedTx.routeOf), so the repeated-key pattern inside one transaction
// (Get then Put of the same key) hashes once.
func (e *shardedEngine) shardOf(k uint64) int {
	h := k * 0x9e3779b97f4a7c15
	h ^= h >> 32
	hi, _ := bits.Mul64(h, uint64(len(e.shards)))
	return int(hi)
}

// subSpec divides a caller's sizing hints across the shards.
func (e *shardedEngine) subSpec(spec MapSpec) MapSpec {
	n := len(e.shards)
	if spec.Buckets > 0 {
		spec.Buckets = max(spec.Buckets/n, 16)
	}
	if spec.Stripes > 0 {
		spec.Stripes = max(spec.Stripes/n, 8)
	}
	return spec
}

func (e *shardedEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	m, err := newShardedMap(e, spec, Engine.NewUintMap)
	if err != nil || e.snap == nil {
		return m, err
	}
	return newSnapUintMap(m, &snapChains{tier: e.snap}), nil
}

func (e *shardedEngine) NewRowMap(spec MapSpec) (Map[any], error) {
	if !e.caps.Has(CapRowMaps) {
		return nil, ErrUnsupported
	}
	m, err := newShardedMap(e, spec, Engine.NewRowMap)
	if err != nil || e.snap == nil {
		return m, err
	}
	return newSnapRowMap(m, &snapChains{tier: e.snap}), nil
}

// NewUintQueue places the queue wholly on one shard (queues have no keys to
// partition by, and FIFO order must survive), assigned round-robin so
// several queues spread load. Queue+map compositions still commit
// atomically through the shared-fate group.
func (e *shardedEngine) NewUintQueue() (Queue[uint64], error) {
	if !e.caps.Has(CapQueue) {
		return nil, ErrUnsupported
	}
	qid := e.nextQ.Add(1) - 1
	home := int(qid) % len(e.shards)
	q, err := e.shards[home].NewUintQueue()
	if err != nil {
		return nil, err
	}
	// The queue's latch key is synthesized from the top of the key space,
	// where real workload keys are vanishingly rare; a collision with a map
	// key is benign — the two just over-serialize through one latch.
	return &shardedQueue{e: e, home: home, lkey: ^uint64(0) - qid, q: q}, nil
}

func (e *shardedEngine) NewWorker(tid int) Tx {
	n := len(e.shards)
	t := &shardedTx{e: e, tid: tid, base: make([]Tx, n), ses: make([]*core.Session, n)}
	if e.latch != nil {
		t.lw = newLatchWaiter()
	}
	if e.snap != nil {
		t.snap.tier = e.snap
		t.snap.slot = e.snap.newSlot()
	}
	return t
}

// routeMemoSize is the worker handle's direct-mapped key→shard memo size.
// Must be a power of two.
const routeMemoSize = 8

// shardedTx is the per-worker handle: a lazily filled pool of base handles,
// one per shard this worker has touched, plus the state of the current
// attempt, the pending hint, and the route memo. Not goroutine-safe, like
// every Tx.
type shardedTx struct {
	e    *shardedEngine
	tid  int
	base []Tx            // per-shard base handles, created on first touch
	ses  []*core.Session // their core sessions, on transactional engines

	inRun   bool
	aborted bool  // Tx.Abort doomed the current Run
	begun   []int // shards with an open sub-transaction; begun[0] leads

	// latchKeys is the current Run's latch set — the hint's keys when the
	// Run was hinted, multi-shard, and within latchMaxKeys — nil otherwise.
	latchKeys []uint64
	lw        latchWaiter // reusable wait token (one wait at a time)

	hintPending  bool     // a HintKeys/HintQueues declaration awaits the next Run
	hintShard    int      // shard of the declaration's first key
	hintMulti    bool     // the declaration spans more than one shard
	hintKeys     []uint64 // declared latch keys, ascending; reused across hints
	hintOverflow bool     // declaration exceeded latchMaxKeys: don't latch

	// Direct-mapped key→shard memo: repeated keys (Get then Put inside one
	// transaction, hot keys across iterations) skip the hash. memoS stores
	// shard+1 so the zero value means empty; uint16 covers MaxShards.
	memoK [routeMemoSize]uint64
	memoS [routeMemoSize]uint16

	snap snapAgent // MVCC snapshot state; tier nil when the engine has none
	bo   backoff
}

// snapAgent / snapBuffering implement the snapTxn seam for the top-level
// snapMaps: writes buffer while a (non-doomed) Run is open and publish at
// the logical transaction's single commit timestamp.
func (t *shardedTx) snapAgent() *snapAgent { return &t.snap }
func (t *shardedTx) snapBuffering() bool   { return t.inRun && !t.aborted }

// SnapshotRead implements SnapshotReader, exactly as on the unsharded
// engines: the cut is tier-wide, so it is consistent across every shard —
// the seal cannot pass a shared-fate group commit that is still mid-flight,
// because the whole group is one commit window on the shared tier.
func (t *shardedTx) SnapshotRead(fn func()) bool {
	if !t.snap.enabled() {
		return false
	}
	if t.inRun {
		panic("txengine: SnapshotRead inside an open transaction")
	}
	rt, stale := t.snap.tier.beginSnapshot(t.snap.slot)
	t.snap.rt = rt
	defer func() {
		t.snap.rt = 0
		t.snap.tier.endSnapshot(t.snap.slot)
	}()
	fn()
	t.e.ct.countSnapshot(stale)
	return true
}

// SnapshotReadBatch implements SnapshotBatchReader on the decorator's
// tier-wide cut: one pin, one seal advance, n logical read transactions —
// consistent across every shard like SnapshotRead.
func (t *shardedTx) SnapshotReadBatch(n int, each func(int, uint64)) (uint64, bool) {
	if !t.snap.enabled() {
		return 0, false
	}
	if t.inRun {
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
	t.e.ct.countSnapshotN(stale, uint64(n))
	return rt, true
}

// handle returns this worker's base handle for shard s, creating it (and its
// base session) on first touch — the per-shard session pool. On
// transactional engines creation also caches the handle's core session,
// through which Run drives the shard's sub-transactions.
func (t *shardedTx) handle(s int) Tx {
	h := t.base[s]
	if h == nil {
		h = t.e.shards[s].NewWorker(t.tid)
		t.base[s] = h
		if t.e.txCap {
			// Transactional bases are the Medley family (see the header).
			t.ses[s] = h.(*sessionTx).s
		}
	}
	return h
}

// routeOf is shardOf through the handle's memo.
func (t *shardedTx) routeOf(k uint64) int {
	i := k & (routeMemoSize - 1)
	if t.memoK[i] == k && t.memoS[i] != 0 {
		return int(t.memoS[i]) - 1
	}
	s := t.e.shardOf(k)
	t.memoK[i], t.memoS[i] = k, uint16(s+1)
	return s
}

// enter prepares shard s for one operation by this worker and returns the
// base handle to run it on. Inside a Run it opens the shard's
// sub-transaction on first touch: the attempt's first shard runs solo, and
// every later shard joins it before its first install, so the attempt's
// footprint grows without a restart. Outside a Run (or after Abort) the
// operation runs standalone on the shard.
func (t *shardedTx) enter(s int) Tx {
	h := t.handle(s)
	if !t.inRun || t.aborted {
		return h
	}
	if ses := t.ses[s]; !ses.InTx() {
		ses.TxBegin()
		if len(t.begun) > 0 {
			ses.TxJoin(t.ses[t.begun[0]])
		}
		t.begun = append(t.begun, s)
	}
	return h
}

// rollback aborts every open sub-transaction. Aborting one member aborts
// the group; every member's TxAbort still runs its own sweep and undos.
// Idempotent.
func (t *shardedTx) rollback() {
	for _, s := range t.begun {
		if ses := t.ses[s]; ses.InTx() {
			ses.TxAbort()
		}
	}
	t.begun = t.begun[:0]
}

// commit finalizes a clean attempt — the one commit path for every Run.
// Returns nil on commit, core.ErrTxAborted on conflict.
//
// A single-shard attempt's leader has no followers, so TxEndGroup is a
// plain core commit: no epoch guard, no group. A multi-shard attempt is one
// shared-fate group, committed by one atomic verdict. On persistent bases
// that verdict runs under the shared epoch clock's commit guard: epoch
// advancement is blocked for the duration, and a pre-check verifies every
// member is pinned to the (now immovable) current epoch, so the group lands
// in one epoch cut on every shard — the property multi-device recovery
// relies on. Members that straddle two cuts abort the attempt cleanly.
func (t *shardedTx) commit() error {
	if len(t.begun) == 0 {
		return nil // the transaction touched nothing
	}
	if len(t.begun) > 1 && t.e.clock != nil {
		cur, release := t.e.clock.GuardCommit()
		defer release()
		for _, s := range t.begun {
			if montage.PinnedEpoch(t.ses[s]) != cur {
				t.rollback()
				return core.ErrTxAborted
			}
		}
	}
	lead := t.ses[t.begun[0]]
	t.begun = t.begun[:0]
	// One timestamp for the whole group: drawn before the leader's single
	// InPrep→InProg transition, published for every member's writes
	// together iff the verdict is commit.
	var ts uint64
	if len(t.snap.pending) > 0 {
		ts = t.snap.tier.beginCommit(t.snap.slot)
	}
	err := lead.TxEndGroup()
	if ts != 0 {
		if err == nil {
			t.snap.publishAll(ts)
		} else {
			t.snap.reset()
		}
		t.snap.tier.endCommit(t.snap.slot)
	}
	return err
}

// attempt executes fn once, holding the Run's latches (if any) throughout.
// It returns nil on commit, core.ErrTxAborted on conflict, and fn's own
// error otherwise. Whatever fn leaves open — on an error, an Abort, or a
// panic — is rolled back before the latches are released.
func (t *shardedTx) attempt(fn func() error) error {
	t.inRun, t.aborted = true, false
	t.snap.reset()
	if t.latchKeys != nil {
		if w := t.e.latch.acquireAll(t.latchKeys, &t.lw); w > 0 {
			t.e.ct.latchWaits.Add(uint64(w))
		}
	}
	defer func() {
		t.inRun = false
		t.rollback()
		if t.latchKeys != nil {
			t.e.latch.releaseAll(t.latchKeys)
		}
	}()
	err := fn()
	if err == nil {
		if t.aborted {
			// Abort already rolled back, but fn swallowed its error: treat
			// the attempt as a conflict (mirrors core.Session.Run).
			return core.ErrTxAborted
		}
		err = t.commit()
	}
	return err
}

// Run implements Tx: fn runs optimistically, joining shards as it reaches
// them, and conflict aborts retry under the shared backoff. A pending
// multi-shard hint counts as a FootprintHit and, when it declared at most
// latchMaxKeys keys, latches them for every attempt of the Run.
func (t *shardedTx) Run(fn func() error) error {
	if !t.e.txCap {
		panic("txengine: " + t.e.name + " supports no transactions")
	}
	t.latchKeys = nil
	if t.hintPending {
		t.hintPending = false
		if t.hintMulti {
			t.e.ct.fpHits.Add(1)
			if !t.hintOverflow {
				t.latchKeys = t.hintKeys
			}
		}
	}
	for attempt := 0; ; attempt++ {
		err := t.attempt(fn)
		if err == nil {
			t.e.ct.commits.Add(1)
			if attempt > 0 {
				t.e.ct.aborts.Add(uint64(attempt))
				t.e.ct.retries.Add(uint64(attempt))
			}
			return nil
		}
		if errors.Is(err, core.ErrTxAborted) {
			t.bo.wait(attempt)
			continue
		}
		t.e.ct.aborts.Add(uint64(attempt + 1))
		if attempt > 0 {
			t.e.ct.retries.Add(uint64(attempt))
		}
		return err
	}
}

func (t *shardedTx) RunRead(fn func()) {
	_ = t.Run(func() error { fn(); return nil })
}

func (t *shardedTx) NoTx(fn func()) {
	if t.e.caps.Has(CapNoTx) {
		fn() // ops route standalone through enter
		return
	}
	t.e.ct.fallbacks.Add(1)
	_ = t.Run(func() error { fn(); return nil })
}

func (t *shardedTx) Abort() error {
	if t.inRun && !t.aborted {
		t.rollback()
		t.aborted = true
	}
	return ErrBusinessAbort
}

// shardedMap hash-partitions a transactional map across the engine's
// shards: one base map per shard, each only ever touched by that shard's
// sessions.
type shardedMap[V any] struct {
	e   *shardedEngine
	sub []Map[V]
}

func newShardedMap[V any](e *shardedEngine, spec MapSpec, mk func(Engine, MapSpec) (Map[V], error)) (Map[V], error) {
	sub := e.subSpec(spec)
	m := &shardedMap[V]{e: e, sub: make([]Map[V], len(e.shards))}
	for i, sh := range e.shards {
		var err error
		if m.sub[i], err = mk(sh, sub); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *shardedMap[V]) Get(tx Tx, k uint64) (V, bool) {
	t := tx.(*shardedTx)
	s := t.routeOf(k)
	return m.sub[s].Get(t.enter(s), k)
}

func (m *shardedMap[V]) Put(tx Tx, k uint64, v V) (V, bool) {
	t := tx.(*shardedTx)
	s := t.routeOf(k)
	return m.sub[s].Put(t.enter(s), k, v)
}

func (m *shardedMap[V]) Insert(tx Tx, k uint64, v V) bool {
	t := tx.(*shardedTx)
	s := t.routeOf(k)
	return m.sub[s].Insert(t.enter(s), k, v)
}

func (m *shardedMap[V]) Remove(tx Tx, k uint64) (V, bool) {
	t := tx.(*shardedTx)
	s := t.routeOf(k)
	return m.sub[s].Remove(t.enter(s), k)
}

// shardedQueue is a base queue resident on its home shard, reached through
// the same enter machinery so queue+map transactions stay atomic. lkey is
// the queue's synthetic latch key: declared via HintQueues it lets hinted
// transactions serialize same-queue traffic through the latch table.
type shardedQueue struct {
	e    *shardedEngine
	home int
	lkey uint64
	q    Queue[uint64]
}

func (q *shardedQueue) Enqueue(tx Tx, v uint64) {
	t := tx.(*shardedTx)
	if t.snap.rt != 0 {
		panic("txengine: queue operation inside SnapshotRead (queues are unversioned)")
	}
	q.q.Enqueue(t.enter(q.home), v)
}

func (q *shardedQueue) Dequeue(tx Tx) (uint64, bool) {
	t := tx.(*shardedTx)
	if t.snap.rt != 0 {
		panic("txengine: queue operation inside SnapshotRead (queues are unversioned)")
	}
	return q.q.Dequeue(t.enter(q.home))
}
