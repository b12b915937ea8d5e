package core

import (
	"sync/atomic"
	"unsafe"
)

// Status is the lifecycle state of a transaction descriptor (paper Fig. 4).
type Status uint32

const (
	// InPrep: the transaction is installing descriptors (initial state).
	InPrep Status = iota
	// InProg: the owner has called txEnd; the read and write sets are
	// frozen and the transaction is ready to be validated and committed
	// (possibly by a helper).
	InProg
	// Committed: all speculative writes take effect.
	Committed
	// Aborted: all speculative writes are discarded.
	Aborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case InPrep:
		return "InPrep"
	case InProg:
		return "InProg"
	case Committed:
		return "Committed"
	case Aborted:
		return "Aborted"
	}
	return "invalid"
}

// readRec is one read-set entry: the object and the cell observed by the
// linearizing load.
type readRec struct {
	o   Obj
	tag unsafe.Pointer
}

// Desc is an MCNS transaction descriptor. A fresh descriptor is allocated
// for every transaction (the garbage collector supplies the ABA protection
// that the paper's serial numbers provide); the readSet, writeSet and
// validators slices are mutated only by the owning session and only while
// the status is InPrep, which makes concurrent helper access race-free (see
// package comment).
type Desc struct {
	status atomic.Uint32
	// leader, when non-nil, makes this descriptor a follower in a
	// shared-fate group: its status lives in the leader's word and
	// finalization spans the whole group (see group.go). Set once, before
	// the first install. next chains the group's followers: on the leader
	// it is the newest follower, on a follower the one that joined before
	// it. A chain rather than a slice keeps Desc in its allocation size
	// class.
	leader     *Desc
	next       *Desc
	owner      *Session
	readSet    []readRec
	writeSet   []Obj
	validators []func() bool

	// Inline first storage for the sets: typical transactions (1–10
	// operations, at most one layered validator) fit without further
	// allocation; appends spill to the heap transparently.
	rsBuf [24]readRec
	wsBuf [12]Obj
	vBuf  [1]func() bool
}

// newDesc allocates a descriptor with its set storage inline.
func newDesc(owner *Session) *Desc {
	d := &Desc{owner: owner}
	d.readSet = d.rsBuf[:0]
	d.writeSet = d.wsBuf[:0]
	d.validators = d.vBuf[:0]
	return d
}

// Status returns the descriptor's current status (the leader's, for a
// follower).
func (d *Desc) Status() Status { return Status(d.statusWord().Load()) }

// AddValidator registers an extra commit-time check evaluated (by the owner
// or by helpers) together with read-set validation; used by txMontage to
// fold the epoch check into MCNS commit (paper Section 4.4). Must be called
// by the owning session before the first speculative install.
func (d *Desc) AddValidator(f func() bool) {
	d.validators = append(d.validators, f)
}

// validate re-checks every read-set entry and extra validator (paper
// Fig. 6, validateReads). A read is valid if the object still holds the
// recorded cell, or holds a cell installed over it by this very descriptor
// (a later write by the same transaction).
func (d *Desc) validate() bool {
	for i := range d.readSet {
		r := &d.readSet[i]
		cur := r.o.curCell()
		if cur == r.tag {
			continue
		}
		if cur != nil {
			h := (*cellHeader)(cur)
			if h.desc == d && h.prev == r.tag {
				continue
			}
		}
		return false
	}
	for _, f := range d.validators {
		if !f() {
			return false
		}
	}
	return true
}

// tryFinalize gets a conflicting descriptor "out of the way" (paper Fig. 6):
// abort it if still InPrep, help it commit if InProg, then uninstall it from
// the object through which it was discovered. If the descriptor reached
// InProg its write set is frozen, so the helper additionally sweeps the
// whole write set to accelerate completion.
func (d *Desc) tryFinalize(o Obj, found unsafe.Pointer) {
	if o.curCell() != found {
		return // descriptor no longer responsible for this object
	}
	// For a group member the status word, the validation scope, and the
	// sweep scope are all group-wide: helping one member means finalizing
	// the whole shared-fate group (see group.go).
	w := d.statusWord()
	st := Status(w.Load())
	sawInProg := st == InProg || st == Committed
	if st == InPrep {
		w.CompareAndSwap(uint32(InPrep), uint32(Aborted))
		st = Status(w.Load())
		sawInProg = sawInProg || st == InProg || st == Committed
	}
	if st == InProg {
		if d.validateScope() {
			w.CompareAndSwap(uint32(InProg), uint32(Committed))
		} else {
			w.CompareAndSwap(uint32(InProg), uint32(Aborted))
		}
		st = Status(w.Load())
	}
	committed := st == Committed
	if sawInProg {
		// Write set(s) frozen (owner reached txEnd before finalization):
		// safe for a helper to sweep everything.
		d.sweepScope(committed)
	} else {
		// Aborted straight from InPrep: the owner may still be appending
		// to the write set, so only uninstall the cell we tripped over.
		o.uninstallFor(d, committed)
	}
	if d.owner != nil {
		d.owner.stats().Helps.Add(1)
	}
}

// decide runs the owner's commit on d's status word: freeze the read and
// write sets (InPrep→InProg), validate, and finalize. A lost first CAS
// means a helper already aborted the transaction.
func (d *Desc) decide() {
	w := d.statusWord()
	if w.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
		if d.validateScope() {
			w.CompareAndSwap(uint32(InProg), uint32(Committed))
		} else {
			w.CompareAndSwap(uint32(InProg), uint32(Aborted))
		}
	}
}

// sweep uninstalls the descriptor from every write-set entry. Called by the
// owner on commit/abort, and by helpers once the write set is frozen.
func (d *Desc) sweep(committed bool) {
	for _, o := range d.writeSet {
		o.uninstallFor(d, committed)
	}
}
