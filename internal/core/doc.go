// Package core implements NBTC (NonBlocking Transaction Composition) and
// Medley, following "Transactional Composition of Nonblocking Data
// Structures" (Cai, Wen, Scott; PPoPP 2023).
//
// The package provides:
//
//   - CASObj[T]: an augmented atomic word supporting both plain atomic
//     operations and the transactional NbtcLoad / NbtcCAS operations of
//     Section 3.1 of the paper.
//   - Desc: the M-compare-N-swap (MCNS) transaction descriptor of Section
//     3.2, with install / tryFinalize / validate / uninstall phases.
//   - TxManager and Session: transaction lifecycle management (txBegin,
//     txEnd, txAbort, validateReads), deferred cleanups, allocation undo,
//     and retry helpers.
//
// # Mapping from the paper's 128-bit CAS to Go
//
// The C++ implementation pairs every transactional 64-bit word with a 64-bit
// counter and uses x86 CMPXCHG16B to switch the pair between "real value"
// (even counter) and "descriptor installed" (odd counter). Go has no 128-bit
// CAS, but it has a garbage collector, which eliminates the ABA hazard the
// counter exists to prevent. We therefore represent the
// (value, counter, descriptor) triple as an immutable heap cell reached
// through a single atomic.Pointer. Cells are never reused, so cell identity
// subsumes {value, counter} equality and read-set validation is one pointer
// comparison. The paper's counter is retained in each cell (with the same
// parity convention) purely for introspection and test assertions.
//
// # Descriptor recycling
//
// Like the paper's per-thread descriptors with serial numbers, each Session
// reuses its descriptor across transactions instead of allocating one per
// transaction. A helper reaches a foreign descriptor's fields only through
// tryFinalize (elsewhere descriptors are only compared), which pins it (an atomic count) before checking that the
// cell it tripped over is still installed, and unpins on return. When the
// owner finishes a transaction it sweeps the write set, after which no
// object holds a cell of the descriptor, and only then reads the pin
// count. It keeps the descriptor for its next transaction only if the
// count is 0 and the descriptor is solo; otherwise it leaves it to the GC.
// Go's atomics are sequentially consistent, so this is Dekker's pattern:
// either the owner sees the pin and lets the descriptor go, or the helper's
// check runs after the sweep and fails, because the cell it holds is gone
// and cells are unique pointers. A helper therefore never reads or
// finalizes a later incarnation. Group members are never recycled: a
// helper of one member walks the whole group while pinning only that
// member.
//
// # Concurrency protocol
//
// A critical CAS installs a new cell that carries the owning descriptor, the
// speculative new value, the overwritten old value, and a pointer to the
// replaced cell (used to validate reads that the same transaction later
// overwrote). Conflicting threads that encounter an installed cell eagerly
// finalize the descriptor (abort if InPrep, help validate/commit if InProg)
// and uninstall the cell they tripped over; the owner sweeps its entire
// write set on commit or abort. Helpers never mutate a descriptor's read or
// write sets, and they read the read set only after observing status InProg
// (at which point both sets are frozen), so the protocol is free of data
// races by construction. Eager contention management makes the system
// obstruction-free, exactly as argued in Section 5.2 of the paper.
package core
