// Package montage implements an nbMontage-style periodic-persistence system
// (Cai et al., DISC 2021) and its integration with Medley — the paper's
// txMontage (Section 4).
//
// Wall-clock time is divided into epochs. Semantically significant data
// ("payloads": key/value records) are written to (simulated) NVM as they are
// created, tagged with the creating operation's epoch; indices live in
// transient memory and are rebuilt on recovery. When the epoch advances from
// e to e+1, all payload activity of epoch e-1 is written back and fenced —
// off the application's critical path. A crash during epoch e therefore
// recovers the state as of the end of epoch e-2 (buffered durable strict
// serializability; Definitions 4–5 of the paper).
//
// The txMontage twist (Section 4.4) is one small hook: every Medley
// transaction pins the epoch it began in and folds "current epoch == pinned
// epoch" into MCNS read validation, so all operations of a transaction
// linearize in one epoch and are recovered (or lost) together — failure
// atomicity "almost for free".
//
// # Sharded persistence
//
// The epoch *counter* and the per-device *batching* are separate concerns:
// an EpochClock carries the counter plus the pinned-session registry, and an
// EpochSys carries one device's pending batches. A single-device system owns
// a private clock (NewEpochSys); a sharded system shares one clock across S
// EpochSys instances (NewEpochSysShared), so every transaction in the domain
// — wherever its shards live — pins the same monotonically advancing epoch
// numbers, and a coordinator advances all devices together
// (AdvanceTogether). Each flush ends with a durable frontier marker on the
// device, so post-crash recovery can compute, per device, the highest epoch
// fully persisted there; the recovery cut of the whole domain is the minimum
// of those frontiers (ConsistentCut), and LiveRecordsAt rebuilds each
// device's logical state at exactly that cut — payloads beyond it are
// dropped and retirements beyond it are ignored, so no transaction is ever
// recovered torn across devices.
package montage

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/chaos"
	"medley/internal/core"
	"medley/internal/pnvm"
)

// Fault-injection points on the epoch flush/advance path. The flush points
// sit inside one device's Flush (batch write-backs, the window between batch
// durability and the frontier marker, and the marker's own volatile window);
// the advance points sit in AdvanceTogether, where a crash tears the domain
// between shards' flushes. All of these sites return nothing, so only
// crash/delay faults are meaningful.
var (
	cpFlushBatch          = chaos.At("txmontage.flush.batch")
	cpFlushPreMarker      = chaos.At("txmontage.flush.pre-marker")
	cpFlushMarkerVolatile = chaos.At("txmontage.flush.marker-volatile")
	cpAdvancePreFlush     = chaos.At("txmontage.advance.pre-flush")
	cpAdvanceMidShard     = chaos.At("txmontage.advance.mid-shard")
)

// firstEpoch leaves room for the e-2 recovery cut arithmetic.
const firstEpoch = 3

// FrontierKey is the reserved payload key of durable frontier markers: a
// record with this key and epoch tag e asserts that every payload batch
// through epoch e has been written back and fenced on its device. Data maps
// must not use it.
const FrontierKey = ^uint64(0)

// EpochClock is the epoch counter plus the registry of sessions pinned to an
// epoch. One clock can be shared by several EpochSys instances (sharded
// txMontage: one device and batch system per shard, one clock), which is
// what lets a cross-shard transaction land in the same epoch cut on every
// shard it touches.
type EpochClock struct {
	epoch atomic.Uint64

	// commitMu serializes epoch advancement against multi-shard commits: a
	// cross-shard group commit holds the read side for its whole verdict
	// (GuardCommit), so every member's epoch validator sees the same
	// current epoch and the group lands in one cut; Tick holds the write
	// side only for the increment itself.
	commitMu sync.RWMutex

	// advanceMu serializes whole advance sequences (tick + straggler wait
	// + flush) against each other. Without it, a Sync racing a background
	// advancer could durably write epoch E's frontier marker before epoch
	// E-1's batch finished write-back, falsifying the marker invariant
	// ("marker at E ⇒ complete through E") that recovery cuts rely on.
	advanceMu sync.Mutex

	mu     sync.Mutex
	active []*atomic.Uint64 // per-session pinned epoch (0 = none)
}

// NewEpochClock creates a clock at the first epoch.
func NewEpochClock() *EpochClock {
	c := &EpochClock{}
	c.epoch.Store(firstEpoch)
	return c
}

// Current returns the current epoch.
func (c *EpochClock) Current() uint64 { return c.epoch.Load() }

// Tick advances the epoch by one and returns the new value. It does not
// wait for stragglers or flush anything — see EpochSys.Advance and
// AdvanceTogether for the full advance protocols.
func (c *EpochClock) Tick() uint64 {
	c.commitMu.Lock()
	e := c.epoch.Add(1)
	c.commitMu.Unlock()
	return e
}

// GuardCommit blocks epoch advancement until release is called and returns
// the epoch that stays current for the whole guarded window. Multi-shard
// group commits run under it so all their members' epoch validators agree.
func (c *EpochClock) GuardCommit() (epoch uint64, release func()) {
	c.commitMu.RLock()
	return c.epoch.Load(), c.commitMu.RUnlock
}

// AdvanceTo raises the clock to at least epoch e. Recovery re-anchoring
// uses it so the fresh clock starts beyond every pre-crash epoch still on
// media — a new transaction must never share an epoch number with an old,
// already-flushed batch. Like Tick, the mutation happens under commitMu's
// write side, so it cannot land inside a commit sequence's GuardCommit
// window (whose epoch must stay current until released).
func (c *EpochClock) AdvanceTo(e uint64) {
	c.commitMu.Lock()
	if c.epoch.Load() < e {
		c.epoch.Store(e)
	}
	c.commitMu.Unlock()
}

// register allocates an active-epoch slot for a session.
func (c *EpochClock) register() *atomic.Uint64 {
	slot := &atomic.Uint64{}
	c.mu.Lock()
	c.active = append(c.active, slot)
	c.mu.Unlock()
	return slot
}

// WaitNotPinnedBelow spins until no session is pinned to an epoch < bound.
func (c *EpochClock) WaitNotPinnedBelow(bound uint64) {
	for {
		c.mu.Lock()
		ok := true
		for _, slot := range c.active {
			if e := slot.Load(); e != 0 && e < bound {
				ok = false
				break
			}
		}
		c.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// EpochSys manages one device's pending persistence batches and its view of
// the (possibly shared) epoch clock. Create with NewEpochSys (private clock)
// or NewEpochSysShared, attach to a TxManager with Attach, and either run
// the background advancer (Start/Stop), call Advance manually (tests), or —
// for shared clocks — let a coordinator drive AdvanceTogether.
type EpochSys struct {
	dev   *pnvm.Device
	clock *EpochClock

	// pending[e % pendSlots] holds record ids touched (created or retired)
	// in epoch e, awaiting write-back. Striped to keep op-path contention
	// low. An epoch's batch is flushed two advances later, so 8 slots are
	// plenty.
	stripes [16]pendStripe

	claims atomic.Uint64 // retire-claim allocator

	// lastMarker is the id of the newest durable frontier marker; each
	// flush deletes the one it supersedes (Frontier takes the max, so only
	// the newest matters) to keep marker count O(1) instead of O(epochs).
	// Written only under the clock's advanceMu, or single-threaded during
	// recovery re-anchoring.
	lastMarker uint64

	stop chan struct{}
	done chan struct{}
}

type pendStripe struct {
	mu   sync.Mutex
	pend map[uint64][]uint64 // epoch → record ids
}

// NewEpochSys creates an epoch system over the given device with a private
// clock.
func NewEpochSys(dev *pnvm.Device) *EpochSys {
	return NewEpochSysShared(dev, NewEpochClock())
}

// NewEpochSysShared creates an epoch system over the given device pinned to
// a shared clock. The caller owns the advance cadence: drive all systems of
// the clock together with AdvanceTogether (or SyncTogether); do not Start
// per-system advancers on a shared clock.
func NewEpochSysShared(dev *pnvm.Device, clock *EpochClock) *EpochSys {
	es := &EpochSys{dev: dev, clock: clock}
	for i := range es.stripes {
		es.stripes[i].pend = make(map[uint64][]uint64)
	}
	return es
}

// Device returns the underlying simulated NVM device.
func (es *EpochSys) Device() *pnvm.Device { return es.dev }

// Clock returns the epoch clock (private or shared).
func (es *EpochSys) Clock() *EpochClock { return es.clock }

// Current returns the current epoch.
func (es *EpochSys) Current() uint64 { return es.clock.Current() }

// NewClaim returns a fresh retire-claim token.
func (es *EpochSys) NewClaim() uint64 { return es.claims.Add(1) }

func (es *EpochSys) pendAdd(sid int, epoch, id uint64) {
	st := &es.stripes[sid%len(es.stripes)]
	st.mu.Lock()
	st.pend[epoch] = append(st.pend[epoch], id)
	st.mu.Unlock()
}

// PNew writes a fresh payload to NVM tagged with epoch, registering it for
// the epoch's persistence batch. Returns the payload id.
func (es *EpochSys) PNew(sid int, key uint64, val []byte, epoch uint64) uint64 {
	if key == FrontierKey {
		panic("montage: payload key 2^64-1 is reserved for frontier markers")
	}
	id, err := es.dev.Write(key, val, epoch)
	if err != nil {
		panic("montage: device crashed during operation: " + err.Error())
	}
	es.pendAdd(sid, epoch, id)
	return id
}

// UnNew deletes a payload created by a transaction that aborted (it was
// never durable: the epoch validator guarantees its batch has not flushed).
func (es *EpochSys) UnNew(id uint64) { es.dev.Delete(id) }

// PRetire marks a payload retired as of epoch, registering the mark for the
// epoch's persistence batch. claim must come from NewClaim.
func (es *EpochSys) PRetire(sid int, id, epoch, claim uint64) {
	if err := es.dev.Retire(id, epoch, claim); err != nil {
		panic("montage: device crashed during operation: " + err.Error())
	}
	es.pendAdd(sid, epoch, id)
}

// UnRetire clears a retire mark written by an aborting transaction.
func (es *EpochSys) UnRetire(id, claim uint64) { es.dev.UnRetire(id, claim) }

// Flush persists the given epoch's batch on this device — write-back of
// every pending record, a fence, and then a durable frontier marker
// asserting the device is complete through that epoch. Callers must ensure
// no session is still pinned at or below the epoch (WaitNotPinnedBelow).
// On a crashed device the flush is a no-op: the records (and the marker)
// are simply lost, which recovery's frontier arithmetic already models.
func (es *EpochSys) Flush(epoch uint64) {
	for i := range es.stripes {
		st := &es.stripes[i]
		st.mu.Lock()
		ids := st.pend[epoch]
		delete(st.pend, epoch)
		st.mu.Unlock()
		cpFlushBatch.Hit() // crash here loses this stripe's (and later stripes') write-backs
		for _, id := range ids {
			es.dev.WriteBack(id)
		}
	}
	es.dev.Fence()
	cpFlushPreMarker.Hit() // crash here: batch durable, marker missing — epoch cut falls before it
	// The frontier marker is only meaningful if it becomes durable after
	// the batch: recovery treats a missing marker as "this epoch never
	// fully persisted here" and cuts before it.
	id, err := es.dev.Write(FrontierKey, nil, epoch)
	if err != nil {
		if errors.Is(err, pnvm.ErrCrashed) {
			return
		}
		panic("montage: frontier marker write failed: " + err.Error())
	}
	cpFlushMarkerVolatile.Hit() // crash here: marker written but never durable
	es.dev.WriteBack(id)
	es.dev.Fence()
	// The new marker durably supersedes the previous one; drop it so
	// markers don't accumulate one per epoch. A crash between the
	// write-back above and this delete leaves both (harmless, Frontier
	// takes the max); a crash *before* the write-back lost the new marker,
	// and then the delete must not erase the old one — pnvm.Device.Delete
	// is a no-op on crashed media, which covers exactly that window.
	if es.lastMarker != 0 {
		es.dev.Delete(es.lastMarker)
	}
	es.lastMarker = id
}

// Advance moves to the next epoch and persists (write-back + fence) the
// batch from two epochs ago, after waiting for straggler transactions still
// pinned to that epoch to finish (their commits are already impossible —
// the epoch validator fails — so the wait is short and bounded by abort
// processing). On a shared clock prefer AdvanceTogether, which flushes
// every device of the domain at the same boundary.
func (es *EpochSys) Advance() {
	AdvanceTogether(es.clock, []*EpochSys{es})
}

// Sync persists everything up to and including the current epoch: it
// advances twice so the current epoch's batch flushes, making all
// previously-committed transactions durable (the paper's wait-free sync,
// here a simple blocking call).
func (es *EpochSys) Sync() {
	es.Advance()
	es.Advance()
}

// AdvanceTogether advances a shared clock once and flushes the newly
// flushable batch on every system of the domain, so all devices reach the
// same epoch boundary before the advance returns. This is the sharded
// engine's coordinator step. Whole advance sequences are serialized per
// clock (a Sync racing the background coordinator must not interleave
// their flushes, or a frontier marker could outrun an older batch's
// write-back).
func AdvanceTogether(clock *EpochClock, systems []*EpochSys) {
	clock.advanceMu.Lock()
	defer clock.advanceMu.Unlock()
	e := clock.Tick()
	clock.WaitNotPinnedBelow(e - 1)
	cpAdvancePreFlush.Hit() // crash here: epoch ticked, nothing flushed
	for _, es := range systems {
		es.Flush(e - 2)
		// Fires between one shard's flush and the next, so a crash tears
		// the domain mid-advance: some devices carry this epoch's marker,
		// the rest don't, and recovery must cut at the minimum frontier.
		cpAdvanceMidShard.Hit()
	}
}

// SyncTogether is Sync for a shared-clock domain: after it returns, every
// transaction committed before the call is durable on its devices at one
// mutually consistent epoch boundary.
func SyncTogether(clock *EpochClock, systems []*EpochSys) {
	AdvanceTogether(clock, systems)
	AdvanceTogether(clock, systems)
}

// ReanchorAll scrubs every reattached device of a (fresh) domain after a
// crash so they can be reused: torn state beyond the recovery cut —
// records created after it, retirement marks stamped after it — is removed
// from media, stale frontier markers are dropped, one fresh durable marker
// per device re-asserts "complete through cut", and the shared clock is
// raised past the cut so no new transaction shares an epoch number with a
// pre-crash batch. Without the scrub a *second* crash would compute its
// frontier from pre-first-crash markers and resurrect exactly the torn
// state the first recovery discarded. Epoch advancement is blocked for the
// duration, so a background advancer already running on the rebuilt engine
// cannot interleave its flushes with the scrub. dumps must be
// index-aligned with systems.
func ReanchorAll(clock *EpochClock, systems []*EpochSys, dumps [][]pnvm.Record, cut uint64) {
	clock.advanceMu.Lock()
	defer clock.advanceMu.Unlock()
	for i, es := range systems {
		es.reanchor(dumps[i], cut)
	}
	clock.AdvanceTo(cut + 2)
}

// reanchor is ReanchorAll's per-device step. Callers hold the clock's
// advanceMu (or run single-threaded), since it writes lastMarker.
func (es *EpochSys) reanchor(recs []pnvm.Record, cut uint64) {
	// Drop every frontier marker by scanning the device itself, not the
	// dump: a background coordinator that ticked between reattachment and
	// recovery has written markers at fresh-clock epochs the dump never
	// saw, and a stale marker surviving here would falsify the next
	// crash's consistent cut.
	es.dev.DeleteKey(FrontierKey)
	for _, r := range recs {
		switch {
		case r.Key == FrontierKey:
			// already gone via DeleteKey
		case r.Epoch > cut:
			es.dev.Delete(r.ID)
		case r.Retire > cut:
			es.dev.ClearRetire(r.ID)
		}
	}
	id, err := es.dev.Write(FrontierKey, nil, cut)
	if err != nil {
		panic("montage: reanchor marker write failed: " + err.Error())
	}
	es.dev.WriteBack(id)
	es.dev.Fence()
	es.lastMarker = id
}

// Start launches the background epoch advancer with the given period
// (nbMontage uses tens of milliseconds). Stop() halts it. Only for systems
// with a private clock; shared-clock domains run one coordinator instead.
func (es *EpochSys) Start(period time.Duration) {
	es.stop = make(chan struct{})
	es.done = make(chan struct{})
	go func() {
		defer close(es.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-es.stop:
				return
			case <-t.C:
				es.Advance()
			}
		}
	}()
}

// Stop halts the background advancer.
func (es *EpochSys) Stop() {
	if es.stop != nil {
		close(es.stop)
		<-es.done
		es.stop = nil
	}
}

// txCtx is the per-transaction epoch context stored in Session.TxData. It
// is embedded in the session's sessExt and reused across transactions —
// only the owning session's goroutine reads or writes its fields.
type txCtx struct {
	epoch uint64
	slot  *atomic.Uint64
}

// sessExt is the per-session epoch state cached in Session.Ext: the pinned
// epoch slot plus a reusable transaction context and validator closure, so
// TxBegin on the txMontage hot path allocates nothing beyond the MCNS
// descriptor itself. The validator reads the atomic pinned slot rather than
// the (owner-only) ctx fields: helpers may evaluate a descriptor's
// validators concurrently with the owner, and while the descriptor can be
// finalized (InProg) the owner is still inside TxEnd, so the slot holds
// exactly the epoch that transaction pinned. A straggling helper that
// evaluates after the owner moved on gets an arbitrary verdict, but its
// status CAS then fails against the already-final descriptor — same as the
// pre-existing helper race.
type sessExt struct {
	slot      *atomic.Uint64
	ctx       txCtx
	validator func() bool
}

// Attach wires the epoch system into a TxManager, turning Medley
// transactions on attached structures into txMontage transactions: TxBegin
// pins the current epoch and registers the epoch validator; transaction end
// releases the pin.
func Attach(mgr *core.TxManager, es *EpochSys) {
	clock := es.clock
	extFor := func(s *core.Session) *sessExt {
		// Sessions are single-goroutine, so the cached ext needs no lock.
		if ext, ok := s.Ext.(*sessExt); ok {
			return ext
		}
		ext := &sessExt{slot: clock.register()}
		ext.validator = func() bool { return clock.Current() == ext.slot.Load() }
		s.Ext = ext
		return ext
	}
	mgr.SetBeginHook(func(s *core.Session) {
		ext := extFor(s)
		e := clock.Current()
		ext.slot.Store(e)
		ext.ctx = txCtx{epoch: e, slot: ext.slot}
		s.TxData = &ext.ctx
		s.Desc().AddValidator(ext.validator)
	})
	mgr.SetEndHook(func(s *core.Session, committed bool) {
		if ctx, ok := s.TxData.(*txCtx); ok {
			ctx.slot.Store(0)
		}
	})
}

// TxEpoch returns the epoch the session's current transaction is pinned to,
// or the current epoch when outside a transaction.
func (es *EpochSys) TxEpoch(s *core.Session) uint64 {
	if e := PinnedEpoch(s); e != 0 {
		return e
	}
	return es.clock.Current()
}

// PinnedEpoch returns the epoch the session's current transaction is pinned
// to, or 0 when the session is outside a transaction (or the manager has no
// epoch system attached). The sharded commit coordinator uses it to check
// that every shard's sub-transaction sits in the same epoch cut before the
// group commit starts.
func PinnedEpoch(s *core.Session) uint64 {
	if s != nil && s.InTx() {
		if ctx, ok := s.TxData.(*txCtx); ok {
			return ctx.epoch
		}
	}
	return 0
}
