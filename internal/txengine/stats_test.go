package txengine

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestStatsDeterministic pins the uniform accounting contract on every
// transactional engine: committed Runs move Commits exactly, business
// aborts move Aborts without a retry, RunRead counts as a commit, and NoTx
// moves Fallbacks exactly on the engines that must wrap it in a
// transaction. The engines run on an hour-long epoch: an epoch advance
// that lands mid-Run aborts and retries it once on the txMontage engines,
// which would break the exact counts below.
func TestStatsDeterministic(t *testing.T) {
	eachTxEngineWith(t, Config{EpochLen: time.Hour}, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		tx := eng.NewWorker(0)
		base := eng.Stats()

		for i := uint64(0); i < 5; i++ {
			if err := tx.Run(func() error { m.Put(tx, i, i); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		d := eng.Stats().Delta(base)
		if d.Commits != 5 || d.Aborts != 0 || d.Retries != 0 {
			t.Fatalf("after 5 uncontended commits: %+v", d)
		}

		tx.RunRead(func() { m.Get(tx, 1) })
		if d := eng.Stats().Delta(base); d.Commits != 6 {
			t.Fatalf("RunRead did not count as a commit: %+v", d)
		}

		errBiz := errors.New("no funds")
		base = eng.Stats()
		if err := tx.Run(func() error { m.Put(tx, 9, 9); return errBiz }); !errors.Is(err, errBiz) {
			t.Fatalf("business abort returned %v", err)
		}
		if err := tx.Run(func() error { return tx.Abort() }); !errors.Is(err, ErrBusinessAbort) {
			t.Fatalf("Tx.Abort returned %v", err)
		}
		d = eng.Stats().Delta(base)
		if d.Commits != 0 || d.Aborts != 2 || d.Retries != 0 {
			t.Fatalf("after 2 business aborts: %+v", d)
		}

		base = eng.Stats()
		tx.NoTx(func() { m.Get(tx, 1) })
		d = eng.Stats().Delta(base)
		if b.Caps.Has(CapNoTx) {
			if d.Fallbacks != 0 {
				t.Fatalf("engine with CapNoTx counted a fallback: %+v", d)
			}
		} else if d.Fallbacks != 1 {
			t.Fatalf("engine without CapNoTx must count NoTx as a fallback: %+v", d)
		}
	})
}

// TestStatsUnderConflict forces transaction conflicts and asserts the
// counters move coherently. For the optimistic read-validated engines
// (Medley, txMontage, TDSL) a conflicting write is interposed between a
// transaction's read and its commit, which must produce at least one abort
// and one retry deterministically. For every engine, a concurrent increment
// hammer must commit each Run exactly once — Commits is exact even when
// retries happen underneath.
func TestStatsUnderConflict(t *testing.T) {
	forced := map[string]bool{"medley": true, "txmontage": true, "tdsl": true}
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		if forced[b.Key] {
			const k = uint64(77)
			tx := eng.NewWorker(0)
			m.Put(tx, k, 1)
			base := eng.Stats()
			readDone := make(chan struct{})
			writeDone := make(chan struct{})
			go func() {
				<-readDone
				w2 := eng.NewWorker(1)
				m.Put(w2, k, 100)
				close(writeDone)
			}()
			attempt := 0
			if err := tx.Run(func() error {
				attempt++
				v, _ := m.Get(tx, k)
				if attempt == 1 {
					close(readDone)
					<-writeDone // the read is now stale; commit must fail
				}
				m.Put(tx, k, v+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// The interposing standalone Put itself counts as a one-shot
			// commit on engines that wrap standalone ops (TDSL), so Commits
			// is a lower bound here.
			d := eng.Stats().Delta(base)
			if d.Commits < 1 || d.Aborts < 1 || d.Retries < 1 {
				t.Fatalf("forced conflict not counted: %+v (fn ran %d times)", d, attempt)
			}
		}

		// Concurrent increments: every Run commits exactly once.
		const (
			workers = 4
			iters   = 300
			hot     = uint64(5)
		)
		init := eng.NewWorker(10)
		m.Put(init, hot, 0)
		base := eng.Stats()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tx := eng.NewWorker(11 + w)
				for i := 0; i < iters; i++ {
					if err := tx.Run(func() error {
						v, _ := m.Get(tx, hot)
						m.Put(tx, hot, v+1)
						return nil
					}); err != nil {
						t.Errorf("increment: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		d := eng.Stats().Delta(base)
		if d.Commits != workers*iters {
			t.Fatalf("commits %d != %d Runs (aborts=%d retries=%d)",
				d.Commits, workers*iters, d.Aborts, d.Retries)
		}
		if d.Retries > d.Aborts {
			t.Fatalf("retries %d > aborts %d", d.Retries, d.Aborts)
		}
		if !b.Caps.Has(CapDynamicTx) {
			return // static engines cannot read-modify-write; skip the sum check
		}
		final := eng.NewWorker(99)
		if v, _ := m.Get(final, hot); v != workers*iters {
			t.Fatalf("hot key = %d, want %d: lost increments", v, workers*iters)
		}
	})
}

// TestMedleyReadOnlyRunAllocatesNothing guards the allocation-free Medley
// commit path end to end: with the session's descriptor recycled and no
// adapter closures, a read-only Run or RunRead of map Gets allocates
// nothing.
func TestMedleyReadOnlyRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng, err := Build("medley", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.NewWorker(0)
	for k := uint64(0); k < 8; k++ {
		m.Put(tx, k, k)
	}
	gets := func() {
		for k := uint64(0); k < 8; k += 3 {
			m.Get(tx, k)
		}
	}
	run := func() error { gets(); return nil }
	if n := testing.AllocsPerRun(100, func() { _ = tx.Run(run) }); n != 0 {
		t.Errorf("read-only Run allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tx.RunRead(gets) }); n != 0 {
		t.Errorf("RunRead allocates %.1f times, want 0", n)
	}
}
