package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// Tests for per-session descriptor recycling (see the package comment):
// a finished solo descriptor is reused by the session's next transaction
// unless a helper has it pinned, and group members are never reused.

// TestRecyclePinnedDescNotReused pins a descriptor the way a helper inside
// tryFinalize does: the session must hand its next transaction a fresh
// descriptor, leave the pinned one's final status alone, and resume reuse
// with the fresh one.
func TestRecyclePinnedDescNotReused(t *testing.T) {
	s := NewTxManager().Session()
	var a CASObj[int]

	s.TxBegin()
	a.NbtcCAS(s, 0, 1, true, true)
	d1 := s.Desc()
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	s.TxBegin()
	if s.Desc() != d1 {
		t.Fatal("unpinned solo descriptor was not reused")
	}
	if d1.serial != 1 || d1.Status() != InPrep || len(d1.readSet) != 0 || len(d1.writeSet) != 0 {
		t.Fatalf("reused descriptor not reset: serial=%d status=%v", d1.serial, d1.Status())
	}

	d1.pins.Add(1)
	a.NbtcCAS(s, 1, 2, true, true)
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	s.TxBegin()
	d2 := s.Desc()
	if d2 == d1 {
		t.Fatal("pinned descriptor was reused")
	}
	if d1.Status() != Committed || d1.serial != 1 {
		t.Fatalf("pinned descriptor changed after finish: status=%v serial=%d", d1.Status(), d1.serial)
	}
	d1.pins.Add(-1)
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	s.TxBegin()
	if s.Desc() != d2 {
		t.Fatal("reuse did not resume after the pinned descriptor was dropped")
	}
	s.TxAbort()
	if a.Load() != 2 {
		t.Fatalf("a = %d, want 2", a.Load())
	}
}

// TestRecycleStaleHelperLeavesNextIncarnation replays a helper that found
// a cell of the previous incarnation and reached tryFinalize only after the
// descriptor was recycled: the cell is gone, so the helper must neither
// abort nor sweep the InPrep transaction now using the descriptor.
func TestRecycleStaleHelperLeavesNextIncarnation(t *testing.T) {
	s := NewTxManager().Session()
	var a, b CASObj[int]

	s.TxBegin()
	a.NbtcCAS(s, 0, 1, true, true)
	d := s.Desc()
	stale := unsafe.Pointer(a.c.Load()) // d's installed cell on a
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}

	s.TxBegin()
	if s.Desc() != d {
		t.Fatal("descriptor was not reused")
	}
	b.NbtcCAS(s, 0, 5, true, true)
	d.tryFinalize(&a, stale)
	if d.Status() != InPrep || b.installedBy() != d {
		t.Fatalf("stale helper touched the next incarnation: status=%v", d.Status())
	}
	if d.pins.Load() != 0 {
		t.Fatal("tryFinalize leaked a pin")
	}
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 1 || b.Load() != 5 {
		t.Fatalf("a=%d b=%d, want 1 5", a.Load(), b.Load())
	}
}

// TestRecycleGroupMembersNeverReused: a helper of one group member walks
// every member while pinning only that one, so neither a leader nor a
// follower may be reused, whether the group commits or aborts. Solo
// transactions afterwards recycle again.
func TestRecycleGroupMembersNeverReused(t *testing.T) {
	for _, commit := range []bool{true, false} {
		s1, s2 := NewTxManager().Session(), NewTxManager().Session()
		var a, b CASObj[int]

		s1.TxBegin()
		s2.TxBegin()
		s2.TxJoin(s1)
		lead, foll := s1.Desc(), s2.Desc()
		a.NbtcCAS(s1, 0, 1, true, true)
		b.NbtcCAS(s2, 0, 1, true, true)
		if commit {
			if err := s1.TxEndGroup(); err != nil {
				t.Fatal(err)
			}
		} else {
			s2.TxAbort()
			s1.TxAbort()
		}

		s1.TxBegin()
		s2.TxBegin()
		if s1.Desc() == lead || s2.Desc() == foll {
			t.Fatalf("commit=%v: group member reused", commit)
		}
		if lead.Status() != foll.Status() || (lead.Status() == Committed) != commit {
			t.Fatalf("commit=%v: member statuses %v/%v changed after finish", commit, lead.Status(), foll.Status())
		}
		solo1, solo2 := s1.Desc(), s2.Desc()
		if err := s1.TxEnd(); err != nil {
			t.Fatal(err)
		}
		if err := s2.TxEnd(); err != nil {
			t.Fatal(err)
		}
		s1.TxBegin()
		s2.TxBegin()
		if s1.Desc() != solo1 || s2.Desc() != solo2 {
			t.Fatalf("commit=%v: solo descriptors after a group were not reused", commit)
		}
		s1.TxAbort()
		s2.TxAbort()
	}
}

// TestRecycleStressHelpers runs back-to-back transfers between two objects
// on one session, recycling its descriptor, while helper goroutines Load,
// CAS and transactionally read the same objects and so abort or help-commit
// the owner's incarnations. tryFinalize panics if a descriptor is recycled
// under a pinned helper, so a helper acting on a later incarnation fails
// the test; the race detector (run this with -race) flags a reset that
// overlaps a helper's reads. Money is conserved and every committed
// transfer is visible exactly once.
func TestRecycleStressHelpers(t *testing.T) {
	const (
		total   = 1000
		iters   = 3000
		helpers = 3
	)
	mgr := NewTxManager()
	owner := mgr.Session()
	var a, b CASObj[int]
	a.Store(total)

	var stop atomic.Bool
	var wg, started sync.WaitGroup
	errc := make(chan string, helpers)
	for h := 0; h < helpers; h++ {
		hs := mgr.Session()
		wg.Add(1)
		started.Add(1)
		go func(h int) {
			defer wg.Done()
			started.Done()
			for i := 0; !stop.Load(); i++ {
				switch (h + i) % 3 {
				case 0:
					v := a.Load()
					a.CAS(v, v) // a fresh cell: invalidates the owner's read
				case 1:
					_ = b.Load()
				default:
					var sum int
					_ = hs.Run(func() error {
						va, ta := a.NbtcLoad(hs)
						hs.AddToReadSet(&a, ta)
						vb, tb := b.NbtcLoad(hs)
						hs.AddToReadSet(&b, tb)
						sum = va + vb
						return nil
					})
					if sum != total {
						errc <- "helper observed a torn transfer"
						return
					}
				}
				runtime.Gosched()
			}
		}(h)
	}

	started.Wait()
	wantA, reused := total, 0
	var prev *Desc
	for i := 0; i < iters; i++ {
		delta := 1
		if i%2 == 1 && wantA < total {
			delta = -1
		}
		yield := true // first attempt only, so retries can commit
		err := owner.Run(func() error {
			if owner.Desc() == prev {
				reused++
			}
			prev = owner.Desc()
			va, ta := a.NbtcLoad(owner)
			owner.AddToReadSet(&a, ta)
			vb, tb := b.NbtcLoad(owner)
			owner.AddToReadSet(&b, tb)
			if !a.NbtcCAS(owner, va, va-delta, true, true) {
				return ErrTxAborted
			}
			if yield {
				yield = false
				runtime.Gosched() // let helpers meet the installed descriptor
			}
			if !b.NbtcCAS(owner, vb, vb+delta, true, true) {
				return ErrTxAborted
			}
			return nil
		})
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		wantA -= delta
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}
	if va, vb := a.Load(), b.Load(); va != wantA || va+vb != total {
		t.Fatalf("a=%d b=%d, want a=%d and a+b=%d", va, vb, wantA, total)
	}
	st := mgr.Stats()
	if reused == 0 || st.Helps == 0 {
		t.Fatalf("vacuous run: %d reuses, %d helps", reused, st.Helps)
	}
	t.Logf("%d reuses, %d helps, %d aborts", reused, st.Helps, st.Aborts)
}

// TestReadOnlyRunAllocatesNothing guards the allocation-free commit path:
// with the descriptor recycled, a read-only Session.Run allocates nothing.
func TestReadOnlyRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewTxManager().Session()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)
	fn := func() error {
		_, ta := a.NbtcLoad(s)
		s.AddToReadSet(&a, ta)
		_, tb := b.NbtcLoad(s)
		s.AddToReadSet(&b, tb)
		return nil
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Run(fn) }); n != 0 {
		t.Fatalf("read-only Run allocates %.1f times, want 0", n)
	}
}
