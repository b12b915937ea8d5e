package txengine

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"medley/internal/montage"
)

// testSpec returns a map spec every engine can satisfy.
func testSpec(caps Caps) MapSpec {
	if caps.Has(CapSkipMap) {
		return MapSpec{Kind: KindSkip, Stripes: 64}
	}
	return MapSpec{Kind: KindHash, Buckets: 256}
}

func buildForTest(t *testing.T, b Builder) Engine {
	t.Helper()
	eng, err := b.New(Config{EpochLen: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("build %s: %v", b.Key, err)
	}
	return eng
}

// TestRegistryShape checks that the registry holds all the paper's systems
// plus boost, and that caps are self-consistent with the factories.
func TestRegistryShape(t *testing.T) {
	for _, want := range []string{"medley", "txmontage", "onefile", "ponefile", "tdsl", "lftt", "boost", "original"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("registry missing %q (have %v)", want, Names())
		}
	}
	if _, ok := Lookup("MEDLEY"); !ok {
		t.Error("Lookup must be case-insensitive")
	}
	if _, err := Build("no-such-engine", Config{}); err == nil {
		t.Error("Build of unknown engine must fail")
	}
	for _, b := range Builders() {
		eng := buildForTest(t, b)
		if eng.Caps() != b.Caps {
			t.Errorf("%s: builder caps %b != engine caps %b", b.Key, b.Caps, eng.Caps())
		}
		if eng.Name() == "" {
			t.Errorf("%s: empty display name", b.Key)
		}
		if _, err := eng.NewUintMap(testSpec(b.Caps)); err != nil {
			t.Errorf("%s: NewUintMap(%v): %v", b.Key, testSpec(b.Caps), err)
		}
		if b.Caps.Has(CapRowMaps) {
			cfg := Config{}
			if strings.Contains(b.Key, "txmontage") {
				cfg.RowCodec = testRowCodec()
			}
			eng2, err := b.New(cfg)
			if err != nil {
				t.Fatalf("rebuild %s: %v", b.Key, err)
			}
			if _, err := eng2.NewRowMap(testSpec(b.Caps)); err != nil {
				t.Errorf("%s: NewRowMap: %v", b.Key, err)
			}
			eng2.Close()
		}
		eng.Close()
	}
}

// testRowCodec is a trivial any-codec (values are uint64s boxed as any).
func testRowCodec() montage.Codec[any] {
	u64 := montage.Uint64Codec()
	return montage.Codec[any]{
		Enc: func(v any) []byte { return u64.Enc(v.(uint64)) },
		Dec: func(b []byte) any { return u64.Dec(b) },
	}
}

// eachTxEngine runs f for every engine that supports transactions.
func eachTxEngine(t *testing.T, f func(t *testing.T, b Builder, eng Engine, m Map[uint64])) {
	eachTxEngineWith(t, Config{EpochLen: 2 * time.Millisecond}, f)
}

// eachTxEngineWith is eachTxEngine with every engine built from cfg.
func eachTxEngineWith(t *testing.T, cfg Config, f func(t *testing.T, b Builder, eng Engine, m Map[uint64])) {
	for _, b := range Builders() {
		if !b.Caps.Has(CapTx) {
			continue
		}
		b := b
		t.Run(b.Key, func(t *testing.T) {
			eng, err := b.New(cfg)
			if err != nil {
				t.Fatalf("build %s: %v", b.Key, err)
			}
			defer eng.Close()
			m, err := eng.NewUintMap(testSpec(b.Caps))
			if err != nil {
				t.Fatal(err)
			}
			f(t, b, eng, m)
		})
	}
}

// TestBusinessAbortNoRetry: an error from the transaction body — including
// ErrBusinessAbort from Tx.Abort — must pass through after exactly one
// execution, with the transaction's writes rolled back.
func TestBusinessAbortNoRetry(t *testing.T) {
	errBiz := errors.New("insufficient funds")
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		tx := eng.NewWorker(0)

		calls := 0
		err := tx.Run(func() error {
			calls++
			m.Insert(tx, 7, 77)
			return errBiz
		})
		if !errors.Is(err, errBiz) {
			t.Fatalf("Run returned %v, want business error passthrough", err)
		}
		if calls != 1 {
			t.Fatalf("business abort retried: fn ran %d times", calls)
		}
		if _, ok := m.Get(tx, 7); ok {
			t.Fatal("aborted transaction's insert is visible (rollback broken)")
		}

		calls = 0
		err = tx.Run(func() error {
			calls++
			m.Insert(tx, 9, 99)
			return tx.Abort()
		})
		if !errors.Is(err, ErrBusinessAbort) {
			t.Fatalf("Run returned %v, want ErrBusinessAbort", err)
		}
		if calls != 1 {
			t.Fatalf("Tx.Abort retried: fn ran %d times", calls)
		}
		if _, ok := m.Get(tx, 9); ok {
			t.Fatal("Tx.Abort left the insert visible (rollback broken)")
		}

		// The handle must remain usable after aborts.
		if err := tx.Run(func() error { m.Insert(tx, 11, 1); return nil }); err != nil {
			t.Fatalf("Run after abort: %v", err)
		}
		if _, ok := m.Get(tx, 11); !ok {
			t.Fatal("committed insert not visible after abort sequence")
		}
	})
}

// TestStandaloneOps: map operations outside Run must behave as single
// auto-committed operations on every transactional engine.
func TestStandaloneOps(t *testing.T) {
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		tx := eng.NewWorker(0)
		if !m.Insert(tx, 1, 10) {
			t.Fatal("insert into empty map failed")
		}
		if m.Insert(tx, 1, 20) {
			t.Fatal("insert on present key succeeded")
		}
		if v, ok := m.Get(tx, 1); !ok || v != 10 {
			t.Fatalf("Get = %d,%v want 10,true", v, ok)
		}
		if old, had := m.Put(tx, 1, 30); !had || old != 10 {
			t.Fatalf("Put prev = %d,%v want 10,true", old, had)
		}
		if old, had := m.Remove(tx, 1); !had || old != 30 {
			t.Fatalf("Remove = %d,%v want 30,true", old, had)
		}
		if _, ok := m.Get(tx, 1); ok {
			t.Fatal("key present after Remove")
		}
	})
}

// TestAtomicTransfer: concurrent transactions move value between two keys;
// atomicity requires the sum to be invariant at every committed read. For
// dynamic engines the transfer reads both balances and writes dependent
// values while concurrent readers check the invariant inside transactions;
// for static engines (LFTT) each transaction blind-writes the same value to
// both keys, and the invariant is that the keys end up equal.
func TestAtomicTransfer(t *testing.T) {
	const (
		workers = 4
		iters   = 400
		k1, k2  = 100, 200
		total   = 1000
	)
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		if !b.Caps.Has(CapDynamicTx) {
			testAtomicBlindWrites(t, eng, m)
			return
		}
		init := eng.NewWorker(0)
		m.Put(init, k1, total/2)
		m.Put(init, k2, total/2)

		// Mid-transaction reads of a doomed attempt may legally be
		// inconsistent (TDSL and Medley validate reads at commit), so the
		// invariant is only checked on values observed by the attempt that
		// actually committed — Run leaves the last attempt's values in the
		// captured variables.
		var wg sync.WaitGroup
		violation := make(chan string, workers*2)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				tx := eng.NewWorker(1 + id)
				rng := rand.New(rand.NewPCG(uint64(id)+1, 7))
				for i := 0; i < iters; i++ {
					var a, bv uint64
					var ok1, ok2 bool
					err := tx.Run(func() error {
						a, ok1 = m.Get(tx, k1)
						bv, ok2 = m.Get(tx, k2)
						if !ok1 || !ok2 {
							return nil // doomed attempt (e.g. boost lock conflict); retried
						}
						amt := uint64(rng.IntN(10) + 1)
						if amt > a {
							amt = a
						}
						m.Put(tx, k1, a-amt)
						m.Put(tx, k2, bv+amt)
						return nil
					})
					if err != nil {
						t.Errorf("worker %d: %v", id, err)
						return
					}
					if ok1 && ok2 && a+bv != total {
						select {
						case violation <- fmt.Sprintf("worker %d: committed read %d+%d != %d", id, a, bv, total):
						default:
						}
					}
				}
			}(w)
		}
		// Concurrent invariant readers.
		stop := make(chan struct{})
		var rwg sync.WaitGroup
		for r := 0; r < 2; r++ {
			rwg.Add(1)
			go func(id int) {
				defer rwg.Done()
				tx := eng.NewWorker(100 + id)
				for {
					select {
					case <-stop:
						return
					default:
					}
					var a, bv uint64
					var ok1, ok2 bool
					err := tx.Run(func() error {
						a, ok1 = m.Get(tx, k1)
						bv, ok2 = m.Get(tx, k2)
						return nil
					})
					if err == nil && ok1 && ok2 && a+bv != total {
						select {
						case violation <- fmt.Sprintf("reader %d: committed read %d+%d != %d", id, a, bv, total):
						default:
						}
					}
				}
			}(r)
		}
		wg.Wait()
		close(stop)
		rwg.Wait()
		select {
		case v := <-violation:
			t.Fatalf("atomicity violation: %s", v)
		default:
		}
		final := eng.NewWorker(999)
		a, _ := m.Get(final, k1)
		bv, _ := m.Get(final, k2)
		if a+bv != total {
			t.Fatalf("final sum %d+%d != %d", a, bv, total)
		}
	})
}

// testAtomicBlindWrites is the static-transaction variant: concurrent
// transactions write one value to both keys atomically, so the keys must
// end up equal.
func testAtomicBlindWrites(t *testing.T, eng Engine, m Map[uint64]) {
	const (
		workers = 4
		iters   = 400
		k1, k2  = 100, 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := eng.NewWorker(1 + id)
			for i := 0; i < iters; i++ {
				v := uint64(id)*uint64(iters) + uint64(i) + 1
				if err := tx.Run(func() error {
					m.Put(tx, k1, v)
					m.Put(tx, k2, v)
					return nil
				}); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	tx := eng.NewWorker(999)
	a, ok1 := m.Get(tx, k1)
	b, ok2 := m.Get(tx, k2)
	if !ok1 || !ok2 || a != b {
		t.Fatalf("blind-write atomicity broken: k1=%d,%v k2=%d,%v", a, ok1, b, ok2)
	}
}
