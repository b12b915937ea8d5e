package txengine

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// queued reports how many waiters are queued behind the current owner of k
// (0 when free or held uncontended). Test-only introspection under the
// bucket mutex.
func (lt *latchTable) queued(k uint64) int {
	b := lt.bucketOf(k)
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	if st := b.m[k]; st != nil {
		for w := st.head; w != nil; w = w.next {
			n++
		}
	}
	return n
}

// TestLatchAcquireRelease pins the uncontended protocol: a free latch is
// taken without waiting, release dissolves it (the state is recycled), and
// releasing an unheld latch panics.
func TestLatchAcquireRelease(t *testing.T) {
	lt := newLatchTable()
	w := newLatchWaiter()
	if lt.acquire(42, &w) {
		t.Error("uncontended acquire reported a wait")
	}
	// A different key in another bucket is independent.
	if lt.acquire(43, &w) {
		t.Error("second key acquire reported a wait")
	}
	lt.release(42)
	lt.release(43)
	// Re-acquire after release must again be wait-free.
	if waits := lt.acquireAll([]uint64{7, 42, 43}, &w); waits != 0 {
		t.Errorf("acquireAll on free latches waited %d times", waits)
	}
	lt.releaseAll([]uint64{7, 42, 43})

	defer func() {
		if recover() == nil {
			t.Error("release of an unheld latch did not panic")
		}
	}()
	lt.release(99)
}

// TestLatchFIFOHandoff pins the wake order: waiters queued behind a held
// latch are woken in exactly arrival order, by direct ownership handoff.
// Each goroutine is released into acquire only after the previous one is
// observably queued, so the arrival order is deterministic.
func TestLatchFIFOHandoff(t *testing.T) {
	const k, n = 17, 8
	lt := newLatchTable()
	owner := newLatchWaiter()
	lt.acquire(k, &owner)

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := newLatchWaiter()
			lt.acquire(k, &w)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			lt.release(k)
		}(i)
		// Wait until goroutine i is in the queue before admitting i+1.
		for deadline := time.Now().Add(5 * time.Second); lt.queued(k) != i+1; {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (queued=%d)", i, lt.queued(k))
			}
			time.Sleep(time.Microsecond)
		}
	}
	lt.release(k) // hand off to waiter 0; the chain drains in order
	wg.Wait()
	for i, id := range order {
		if id != i {
			t.Fatalf("wake order %v, want ascending arrival order", order)
		}
	}
	if lt.queued(k) != 0 {
		t.Error("latch still has waiters after the chain drained")
	}
	w := newLatchWaiter()
	if lt.acquire(k, &w) {
		t.Error("latch not free after the chain drained")
	}
	lt.release(k)
}

// TestLatchStressMutualExclusion hammers acquireAll/releaseAll from many
// goroutines with randomized overlapping key sets and asserts, per key, that
// at most one holder exists at a time and no acquisition is ever lost. Run
// under -race this is also the latch table's happens-before check; that the
// test finishes at all is the no-deadlock/no-lost-wakeup check.
func TestLatchStressMutualExclusion(t *testing.T) {
	const (
		keys    = 16 // tiny keyspace: constant overlap
		workers = 8
		iters   = 2000
	)
	lt := newLatchTable()
	var holders [keys]atomic.Int32
	var waits atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := newLatchWaiter()
			rng := rand.New(rand.NewPCG(uint64(id)+1, 0xabcd))
			var set []uint64
			for i := 0; i < iters; i++ {
				set = set[:0]
				for n := 1 + rng.IntN(4); n > 0; n-- {
					set = insertKey(set, rng.Uint64N(keys))
				}
				waits.Add(uint64(lt.acquireAll(set, &w)))
				for _, k := range set {
					if h := holders[k].Add(1); h != 1 {
						t.Errorf("key %d has %d concurrent holders", k, h)
					}
				}
				// Yield while holding so other workers pile onto the queues
				// even on a single-P host.
				runtime.Gosched()
				for _, k := range set {
					holders[k].Add(-1)
				}
				lt.releaseAll(set)
			}
		}(g)
	}
	wg.Wait()
	if waits.Load() == 0 {
		t.Error("stress run never contended; the test is not exercising handoff")
	}
	for k := uint64(0); k < keys; k++ {
		if n := lt.queued(k); n != 0 {
			t.Errorf("key %d still has %d waiters after the run", k, n)
		}
	}
}

// TestInsertKey pins the sorted-dedup invariant hinted and learned latch
// key sets rely on.
func TestInsertKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var set []uint64
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		k := rng.Uint64N(64)
		set = insertKey(set, k)
		seen[k] = true
	}
	if len(set) != len(seen) {
		t.Fatalf("set has %d elements, want %d distinct", len(set), len(seen))
	}
	for i := 1; i < len(set); i++ {
		if set[i-1] >= set[i] {
			t.Fatalf("set not strictly ascending at %d: %v", i, set)
		}
	}
}

// TestShardedLatchedHintZeroRestart pins the hinted path end to end: on an
// idle sharded engine, a hinted cross-shard transaction latches its keys,
// joins its second shard, and commits first time — its closure runs once,
// it counts one footprint hit, and it waits on no latch.
func TestShardedLatchedHintZeroRestart(t *testing.T) {
	eng, err := Build("medley-sharded", Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.NewWorker(0)
	se := eng.(*shardedEngine)
	keys := distinctShardKeys(t, se, 2, 0)
	a, b := keys[0], keys[1]
	base := eng.Stats()
	execs := 0
	for i := 0; i < 10; i++ {
		HintKeys(tx, a, b)
		if err := tx.Run(func() error {
			execs++
			m.Put(tx, a, uint64(i))
			m.Put(tx, b, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	d := eng.Stats().Delta(base)
	if execs != 10 || d.Commits != 10 || d.Aborts != 0 {
		t.Errorf("10 hinted Runs executed %d times: %+v", execs, d)
	}
	if d.FootprintHits != 10 || d.LatchWaits != 0 {
		t.Errorf("want 10 footprint hits and no latch waits: %+v", d)
	}
}

// TestShardedLatchedTransferStress is the engine-level race test for the
// shared-fate commit: workers run transfers over a small overlapping account
// set at 2 and 8 shards, hinted (latched) and unhinted (purely optimistic
// lazy join), and the total must be conserved — any torn group commit or
// latch/epoch ordering bug shows up as drift or a -race report.
func TestShardedLatchedTransferStress(t *testing.T) {
	const (
		accounts = 12 // tiny: nearly every pair of workers overlaps
		perAcct  = 10_000
		workers  = 8
		iters    = 400
	)
	for _, shards := range []int{2, 8} {
		for _, hints := range []bool{true, false} {
			// The label names the effect: unhinted Runs take no latches.
			t.Run(fmt.Sprintf("shards=%d/nolatch=%v", shards, !hints), func(t *testing.T) {
				eng, err := Build("medley-sharded", Config{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
				if err != nil {
					t.Fatal(err)
				}
				init := eng.NewWorker(0)
				for a := uint64(0); a < accounts; a++ {
					m.Put(init, a, perAcct)
				}
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						tx := eng.NewWorker(1 + id)
						rng := rand.New(rand.NewPCG(uint64(id)+1, uint64(shards)))
						for i := 0; i < iters; i++ {
							from := rng.Uint64N(accounts)
							to := rng.Uint64N(accounts)
							amt := uint64(rng.IntN(5) + 1)
							if hints {
								HintKeys(tx, from, to)
							}
							if err := tx.Run(func() error {
								f, _ := m.Get(tx, from)
								if f < amt {
									return nil
								}
								m.Put(tx, from, f-amt)
								// Yield mid-transaction (latches held on the
								// hinted path) so workers genuinely overlap
								// even on a single-P host.
								runtime.Gosched()
								v, _ := m.Get(tx, to)
								m.Put(tx, to, v+amt)
								return nil
							}); err != nil {
								t.Errorf("worker %d: %v", id, err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				audit := eng.NewWorker(workers + 1)
				sum := uint64(0)
				for a := uint64(0); a < accounts; a++ {
					v, _ := m.Get(audit, a)
					sum += v
				}
				if sum != accounts*perAcct {
					t.Errorf("total %d, want %d: money not conserved", sum, accounts*perAcct)
				}
				d := eng.Stats()
				if !hints && (d.LatchWaits != 0 || d.FootprintHits != 0) {
					t.Errorf("unhinted run latched or counted hits: %+v", d)
				}
				if hints && d.LatchWaits == 0 {
					t.Errorf("hinted overlapping stress never waited on a latch: %+v", d)
				}
			})
		}
	}
}
