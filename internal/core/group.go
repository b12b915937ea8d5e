package core

import "sync/atomic"

// This file implements shared-fate transaction groups: several open
// transactions — typically one per shard of a sharded engine, each on its
// own TxManager — that commit or abort as one atomic unit.
//
// A group forms lazily. Its first transaction runs solo and becomes the
// group's leader the moment another transaction joins it (Session.TxJoin).
// A follower joins before its own first speculative install and from then
// on delegates its status to the leader's word, so the single CAS that
// finalizes the leader finalizes every follower at once. Helpers that trip
// over any member's installed cell resolve the *group*: an InPrep group is
// aborted whole, an InProg group is validated across every member's read
// set (and extra validators) and then committed or aborted whole. There is
// no window in which one member is committed and a sibling is not — the
// property the sharded runtime's cross-shard commit relies on, where
// concurrent single-shard transactions may invalidate a sub-transaction's
// reads at any time.
//
// Joining never changes an installed descriptor's status word: the leader
// keeps its own word (its cells may already be installed and visible to
// helpers), and a follower's leader pointer is set before any of its cells
// exist. The leader's follower chain grows while the group is InPrep, but
// helpers walk it only after observing InProg or later, and the owner's
// InPrep→InProg CAS happens after the last join, so the chain is frozen by
// then (the same argument that makes the read and write sets safe to
// share).
//
// Validation soundness under racing finalizers follows the same
// monotonicity argument as the single-descriptor case: cells are immutable
// and the GC rules out ABA, so once any member's read-set entry is invalid
// it stays invalid forever. Whichever finalizer wins the status CAS
// observed an all-valid (or some-invalid) group strictly before its CAS,
// and a racing finalizer with the opposite verdict must have observed the
// group at a time that contradicts monotonicity — so racing verdicts can
// differ only when both CAS attempts land after the status is already
// final, where they are no-ops.

// TxJoin makes s's open transaction a follower of leader's open
// transaction: from now on the two share leader's status word, and the
// group commits only through leader.TxEndGroup. s must not have installed
// any speculative write yet (join right after TxBegin), since its cells
// carry the leader pointer to helpers. The leader may already have
// installed writes, and may itself be the leader of earlier followers, but
// must not be a follower. Members must never touch a common object: one
// meeting a sibling's installed cell would abort its own group.
//
// A follower is finished either by its leader's TxEndGroup or by its own
// TxAbort (aborting any member aborts the group, but every member's session
// still needs its own TxAbort to run its sweep, undos and hooks).
func (s *Session) TxJoin(leader *Session) {
	d, l := s.desc, leader.desc
	if d == nil || l == nil {
		panic("medley: TxJoin outside a transaction")
	}
	if len(d.writeSet) != 0 {
		panic("medley: TxJoin after a speculative install")
	}
	if d.grouped() {
		panic("medley: TxJoin on a transaction already in a group")
	}
	if l.leader != nil || l == d {
		panic("medley: TxJoin to a follower")
	}
	d.leader = l
	d.next, l.next = l.next, d
}

// TxEndGroup atomically commits s's transaction together with every
// transaction that joined it: one status CAS freezes the group, validation
// covers every member's read set and validators, and one final CAS decides
// the fate of all of them. It then finishes every member's session (sweep,
// cleanups/undos, hooks) and returns nil if the group committed,
// ErrTxAborted otherwise. On a transaction nobody joined it is TxEnd.
func (s *Session) TxEndGroup() error {
	d := s.desc
	if d == nil {
		panic("medley: TxEndGroup outside a transaction")
	}
	if d.leader != nil {
		panic("medley: TxEndGroup on a follower; commit through its leader")
	}
	d.decide()
	err := s.finish(d)
	for f := d.next; f != nil; f = f.next {
		f.owner.finish(f)
	}
	return err
}

// grouped reports whether d leads or follows a shared-fate group.
func (d *Desc) grouped() bool { return d.leader != nil || d.next != nil }

// statusWord returns the atomic word that holds this descriptor's status:
// its own for a solo transaction or a leader, the leader's for a follower.
// Every status read and transition goes through it, which is what gives
// group members their shared fate.
func (d *Desc) statusWord() *atomic.Uint32 {
	if d.leader != nil {
		return &d.leader.status
	}
	return &d.status
}

// validateScope validates everything the finalizing CAS would commit: the
// leader and every follower of d's group (just d for a solo transaction).
// Called only once the group is InProg, when the follower chain is frozen.
func (d *Desc) validateScope() bool {
	for m := d.groupLeader(); m != nil; m = m.next {
		if !m.validate() {
			return false
		}
	}
	return true
}

// sweepScope uninstalls the finalized descriptor(s) from their write sets:
// the whole group (helpers only call this once the group reached InProg,
// when every member's write set is frozen), just d for a solo transaction.
func (d *Desc) sweepScope(committed bool) {
	for m := d.groupLeader(); m != nil; m = m.next {
		m.sweep(committed)
	}
}

// groupLeader returns the descriptor whose status word d uses.
func (d *Desc) groupLeader() *Desc {
	if d.leader != nil {
		return d.leader
	}
	return d
}
