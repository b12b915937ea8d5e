package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestCommitLinkedAtomicAcrossManagers pins the shared-fate happy path: two
// transactions on two independent TxManagers, the second joined to the
// first, commit as a unit and both write sets become visible.
func TestCommitLinkedAtomicAcrossManagers(t *testing.T) {
	m1, m2 := NewTxManager(), NewTxManager()
	s1, s2 := m1.Session(), m2.Session()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)

	s1.TxBegin()
	s2.TxBegin()
	s2.TxJoin(s1)
	if !a.NbtcCAS(s1, 1, 10, true, true) {
		t.Fatal("install on a failed")
	}
	if !b.NbtcCAS(s2, 2, 20, true, true) {
		t.Fatal("install on b failed")
	}
	if err := s1.TxEndGroup(); err != nil {
		t.Fatalf("TxEndGroup: %v", err)
	}
	if a.Load() != 10 || b.Load() != 20 {
		t.Fatalf("a=%d b=%d, want 10 20", a.Load(), b.Load())
	}
	if s1.InTx() || s2.InTx() {
		t.Fatal("session still in tx after TxEndGroup")
	}
	if a.installedBy() != nil || b.installedBy() != nil {
		t.Fatal("descriptor left installed after group commit")
	}
}

// TestCommitLinkedValidationAbortsWholeGroup pins the shared fate on the
// failure side: if any member's read set — the leader's or a lazily joined
// follower's — is invalidated before the group commits, every member's
// writes roll back; no member may commit alone.
func TestCommitLinkedValidationAbortsWholeGroup(t *testing.T) {
	for _, staleFollower := range []bool{false, true} {
		m1, m2 := NewTxManager(), NewTxManager()
		s1, s2 := m1.Session(), m2.Session()
		var a, b, c CASObj[int]
		a.Store(1)
		b.Store(2)
		c.Store(3)

		reader := s1
		if staleFollower {
			reader = s2
		}
		s1.TxBegin()
		if !a.NbtcCAS(s1, 1, 10, true, true) {
			t.Fatal("install on a failed")
		}
		s2.TxBegin()
		s2.TxJoin(s1) // lazily, after the leader's install
		v, tag := c.NbtcLoad(reader)
		if v != 3 {
			t.Fatalf("read c=%d, want 3", v)
		}
		reader.AddToReadSet(&c, tag)
		if !b.NbtcCAS(s2, 2, 20, true, true) {
			t.Fatal("install on b failed")
		}
		// An outside (non-transactional) writer invalidates the read.
		if !c.NbtcCAS(nil, 3, 4, true, true) {
			t.Fatal("outside CAS failed")
		}
		if err := s1.TxEndGroup(); !errors.Is(err, ErrTxAborted) {
			t.Fatalf("staleFollower=%v: TxEndGroup = %v, want ErrTxAborted", staleFollower, err)
		}
		// Both writes must roll back, whichever member's read went stale.
		if a.Load() != 1 || b.Load() != 2 {
			t.Fatalf("staleFollower=%v: a=%d b=%d after group abort, want 1 2", staleFollower, a.Load(), b.Load())
		}
		if s1.InTx() || s2.InTx() {
			t.Fatal("session still in tx after an aborted TxEndGroup")
		}
	}
}

// TestTxAbortOnOneMemberAbortsGroup pins the documented abort discipline:
// aborting one member aborts the shared status, and the sibling's own
// TxAbort then rolls back its writes under the same verdict.
func TestTxAbortOnOneMemberAbortsGroup(t *testing.T) {
	m1, m2 := NewTxManager(), NewTxManager()
	s1, s2 := m1.Session(), m2.Session()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)

	s1.TxBegin()
	s2.TxBegin()
	s2.TxJoin(s1)
	a.NbtcCAS(s1, 1, 10, true, true)
	b.NbtcCAS(s2, 2, 20, true, true)
	if err := s2.TxAbort(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("s2.TxAbort = %v", err)
	}
	if err := s1.TxAbort(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("s1.TxAbort = %v", err)
	}
	if a.Load() != 1 || b.Load() != 2 {
		t.Fatalf("a=%d b=%d after member abort, want 1 2", a.Load(), b.Load())
	}
}

// TestJoinGuards pins the misuse panics: joining outside a transaction,
// joining twice, joining a follower, joining after a speculative install,
// and committing a grouped member any way but TxEndGroup on its leader.
func TestJoinGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}

	m1, m2, m3 := NewTxManager(), NewTxManager(), NewTxManager()
	s1, s2, s3 := m1.Session(), m2.Session(), m3.Session()
	mustPanic("TxJoin outside tx", func() { s2.TxJoin(s1) })

	s1.TxBegin()
	s2.TxBegin()
	s3.TxBegin()
	s2.TxJoin(s1)
	mustPanic("double TxJoin", func() { s2.TxJoin(s1) })
	mustPanic("TxJoin to a follower", func() { s3.TxJoin(s2) })
	mustPanic("TxJoin by a leader", func() { s1.TxJoin(s3) })
	mustPanic("TxEnd on a leader with followers", func() { _ = s1.TxEnd() })
	mustPanic("TxEnd on a follower", func() { _ = s2.TxEnd() })
	mustPanic("TxEndGroup on a follower", func() { _ = s2.TxEndGroup() })
	_ = s3.TxAbort()
	_ = s2.TxAbort()
	_ = s1.TxAbort()

	var a CASObj[int]
	a.Store(1)
	s1.TxBegin()
	s2.TxBegin()
	a.NbtcCAS(s2, 1, 2, true, true)
	mustPanic("TxJoin after the follower's first install", func() { s2.TxJoin(s1) })
	_ = s2.TxAbort()
	_ = s1.TxAbort()
	if a.Load() != 1 {
		t.Fatalf("a=%d after abort, want 1", a.Load())
	}
}

// TestJoinLazyAtomicUnderHelping is the lazy-join soundness test: the
// leader installs on one manager's object *before* the follower joins on a
// second manager, while helper sessions on both managers keep resolving the
// two objects — aborting the group while it is InPrep, helping it commit
// once it is InProg — and an outside writer now and then invalidates the
// follower's read. Whatever the interleaving, each iteration's group must
// be all-or-nothing: both counters advance together exactly when
// TxEndGroup reports a commit. Run under -race this is also the
// happens-before check on the leader's follower chain.
func TestJoinLazyAtomicUnderHelping(t *testing.T) {
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	mA, mB := NewTxManager(), NewTxManager()
	lead, fol := mA.Session(), mB.Session()
	var a, b, c CASObj[int]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	help := func(s *Session, o *CASObj[int]) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Run(func() error {
				_, tag := o.NbtcLoad(s) // resolves the group's cell, if any
				s.AddToReadSet(o, tag)
				return nil
			})
			runtime.Gosched()
		}
	}
	wg.Add(3)
	go help(mA.Session(), &a)
	go help(mB.Session(), &b)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%64 == 0 {
				c.Store(c.Load() + 1)
			}
			runtime.Gosched()
		}
	}()

	var commits, aborts int
	for i := 0; i < iters; i++ {
		lead.TxBegin()
		va, _ := a.NbtcLoad(lead)
		if !a.NbtcCAS(lead, va, va+1, true, true) {
			t.Fatal("leader install failed with no competing writer")
		}
		runtime.Gosched() // let the helpers find the leader alone
		fol.TxBegin()
		fol.TxJoin(lead)
		_, tag := c.NbtcLoad(fol)
		fol.AddToReadSet(&c, tag)
		vb, _ := b.NbtcLoad(fol)
		if !b.NbtcCAS(fol, vb, vb+1, true, true) {
			t.Fatal("follower install failed with no competing writer")
		}
		err := lead.TxEndGroup()
		switch {
		case err == nil:
			commits++
		case errors.Is(err, ErrTxAborted):
			aborts++
		default:
			t.Fatalf("TxEndGroup: %v", err)
		}
		if lead.InTx() || fol.InTx() {
			t.Fatal("TxEndGroup left a member open")
		}
		if ga, gb := a.Load(), b.Load(); ga != commits || gb != commits {
			t.Fatalf("iteration %d: a=%d b=%d after %d group commits: torn group", i, ga, gb, commits)
		}
	}
	t.Logf("%d commits, %d aborts, %d helps", commits, aborts, mA.Stats().Helps+mB.Stats().Helps)
	if commits == 0 {
		t.Error("no group ever committed; the test exercised only the abort side")
	}
}
