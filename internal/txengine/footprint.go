package txengine

// Footprint hints for the sharded runtime.
//
// A sharded transaction never needs to know its footprint in advance: each
// shard it reaches joins the Run's shared-fate group on first touch (see
// sharded.go). Workloads that do know their keys up front — a transfer
// knows both accounts before the transaction begins — may still declare
// them. A declaration spanning several shards makes the next Run take FIFO
// key latches on exactly those keys (latch.go), so hinted transactions
// with overlapping keys queue instead of aborting each other on hot keys.
// Such Runs are counted as Stats.FootprintHits.
//
// A stale hint is harmless: the Run still touches whatever it touches, and
// atomicity never depended on the latches.

// KeyHinter is the optional Tx extension of sharded engines: HintKeys
// pre-declares map keys the worker's next Run will touch. The keys are
// sorted and deduplicated once, at declaration time. Successive HintKeys /
// HintQueues calls before a Run accumulate into one declaration; the next
// Run consumes it whole and applies it to all of its attempts. Hinting
// inside Run is a no-op.
type KeyHinter interface {
	HintKeys(keys ...uint64)
}

// QueueHinter is the queue-side companion of KeyHinter: HintQueues
// pre-declares transactional queues the worker's next Run will touch, so a
// multi-shard Run serializes same-queue traffic through the queue's
// synthetic latch key.
type QueueHinter interface {
	HintQueues(qs ...Queue[uint64])
}

// HintQueues forwards a queue footprint hint to tx when its engine supports
// hints; elsewhere it is a no-op, like HintKeys.
func HintQueues(tx Tx, qs ...Queue[uint64]) {
	if h, ok := tx.(QueueHinter); ok {
		h.HintQueues(qs...)
	}
}

// HintKeys forwards a footprint hint to tx when its engine supports hints
// (the sharded decorators); on every other engine it is a no-op, so portable
// workload code can hint unconditionally. Keys that route to a single shard
// latch nothing — the single-shard path needs no scheduling — so
// over-hinting is harmless.
func HintKeys(tx Tx, keys ...uint64) {
	if h, ok := tx.(KeyHinter); ok {
		h.HintKeys(keys...)
	}
}

// hintOpen starts or continues the pending declaration: the first
// HintKeys/HintQueues call after a Run resets the accumulated state, later
// calls merge into it.
func (t *shardedTx) hintOpen() {
	if t.hintPending {
		return
	}
	t.hintPending = true
	t.hintShard = -1
	t.hintMulti = false
	t.hintKeys = t.hintKeys[:0]
	t.hintOverflow = false
}

// hint merges one declared key, routed to shard s, into the pending
// declaration (sorted, deduplicated — done once here, at declaration time,
// not per attempt). Declarations beyond latchMaxKeys give up on latching:
// hundreds of latch handoffs would cost more than the aborts they avoid.
func (t *shardedTx) hint(k uint64, s int) {
	if t.hintShard == -1 {
		t.hintShard = s
	} else if s != t.hintShard {
		t.hintMulti = true
	}
	if t.hintOverflow {
		return
	}
	t.hintKeys = insertKey(t.hintKeys, k)
	if len(t.hintKeys) > latchMaxKeys {
		t.hintOverflow = true
		t.hintKeys = t.hintKeys[:0]
	}
}

// HintKeys implements KeyHinter: route the declared keys and stage them as
// the next Run's latch set.
func (t *shardedTx) HintKeys(keys ...uint64) {
	if t.inRun {
		return
	}
	t.hintOpen()
	for _, k := range keys {
		t.hint(k, t.routeOf(k))
	}
}

// HintQueues implements QueueHinter: declare the queues' home shards and
// synthetic latch keys for the next Run.
func (t *shardedTx) HintQueues(qs ...Queue[uint64]) {
	if t.inRun {
		return
	}
	t.hintOpen()
	for _, q := range qs {
		sq, ok := q.(*shardedQueue)
		if !ok || sq.e != t.e {
			continue // foreign queue: nothing of ours to declare
		}
		t.hint(sq.lkey, sq.home)
	}
}
