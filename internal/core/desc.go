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

// Desc is an MCNS transaction descriptor. Each Session recycles its solo
// descriptors in place of the paper's per-thread descriptors with serial
// numbers: a finished descriptor that no helper has pinned becomes the
// session's spare and is reset for its next transaction (see the package
// comment for why that is safe). The readSet, writeSet and validators
// slices are mutated only by the owning session and only while the status
// is InPrep, which makes concurrent helper access race-free.
type Desc struct {
	status atomic.Uint32
	// pins counts helpers inside tryFinalize; a pinned descriptor is never
	// recycled.
	pins atomic.Int32
	// serial counts the descriptor's incarnations (the paper's serial
	// number). Written only by reset, which helpers cannot overlap.
	serial uint64
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

// reset readies a finished, swept, unpinned solo descriptor for its owner's
// next transaction: status InPrep, empty sets back on their inline storage,
// and no reference kept to the last transaction's objects or validators.
func (d *Desc) reset() {
	d.readSet = emptied(d.readSet, d.rsBuf[:])
	d.writeSet = emptied(d.writeSet, d.wsBuf[:])
	d.validators = emptied(d.validators, d.vBuf[:])
	d.serial++
	d.status.Store(uint32(InPrep))
}

// emptied clears the entries a set used and returns it emptied on its
// inline storage. A set that spilled to the heap leaves that array to the
// GC; its first entries are still in the inline buffer, cleared whole.
func emptied[T any](set, inline []T) []T {
	if cap(set) == len(inline) {
		clear(set)
	} else {
		clear(inline)
	}
	return inline[:0]
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
//
// The helper pins d before checking that found is still installed. Once
// its owner has swept d no object holds a cell of d, so a helper that pins
// after the owner read the pin count sees the check fail and never touches
// a recycled incarnation (see the package comment).
func (d *Desc) tryFinalize(o Obj, found unsafe.Pointer) {
	d.pins.Add(1)
	defer d.pins.Add(-1)
	if o.curCell() != found {
		return // descriptor no longer responsible for this object
	}
	serial := d.serial
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
	if d.serial != serial {
		panic("medley: descriptor recycled under a pinned helper")
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
