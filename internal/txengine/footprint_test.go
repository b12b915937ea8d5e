package txengine

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// keyOnShard returns the first key >= start that routes to shard s on se.
func keyOnShard(t testing.TB, se *shardedEngine, s int, start uint64) uint64 {
	t.Helper()
	for k := start; k < start+1<<20; k++ {
		if se.shardOf(k) == s {
			return k
		}
	}
	t.Fatalf("no key on shard %d near %d", s, start)
	return 0
}

// distinctShardKeys returns n keys routing to n distinct shards, in shard
// order 0..n-1, with successive calls disjoint via start.
func distinctShardKeys(t testing.TB, se *shardedEngine, n int, start uint64) []uint64 {
	t.Helper()
	keys := make([]uint64, n)
	next := start
	for s := 0; s < n; s++ {
		keys[s] = keyOnShard(t, se, s, next)
		next = keys[s] + 1
	}
	return keys
}

// transferOnce Runs one unit transfer from src[from] to dst[to].
func transferOnce(t *testing.T, tx Tx, src, dst Map[uint64], from, to uint64) {
	t.Helper()
	if err := tx.Run(func() error {
		c, _ := src.Get(tx, from)
		if c == 0 {
			return nil
		}
		src.Put(tx, from, c-1)
		d, _ := dst.Get(tx, to)
		dst.Put(tx, to, d+1)
		return nil
	}); err != nil {
		t.Fatalf("transfer: %v", err)
	}
}

// TestShardedHintedTransferNoDiscovery: hinted transfers on an idle engine
// commit first time — no aborts, no retries — every cross-shard Run counts
// one footprint hit and single-shard Runs none, and value is conserved.
func TestShardedHintedTransferNoDiscovery(t *testing.T) {
	const iters = 400
	eng, err := Build("medley-sharded", Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	se := eng.(*shardedEngine)
	checking, _ := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
	savings, _ := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})

	const accounts = 64
	init := eng.NewWorker(0)
	for a := uint64(0); a < accounts; a++ {
		checking.Put(init, a, 1000)
		savings.Put(init, a, 1000)
	}

	tx := eng.NewWorker(1)
	rng := rand.New(rand.NewPCG(42, 1))
	base := eng.Stats()
	wantHits := uint64(0)
	for i := 0; i < iters; i++ {
		from, to := rng.Uint64N(accounts), rng.Uint64N(accounts)
		if se.shardOf(from) != se.shardOf(to) {
			wantHits++
		}
		HintKeys(tx, from, to)
		transferOnce(t, tx, checking, savings, from, to)
	}
	d := eng.Stats().Delta(base)
	if d.Aborts != 0 || d.Retries != 0 {
		t.Errorf("idle hinted transfers aborted: %+v", d)
	}
	if d.FootprintHits != wantHits {
		t.Errorf("FootprintHits = %d, want %d (one per cross-shard Run)", d.FootprintHits, wantHits)
	}
	if d.Commits != iters {
		t.Errorf("Commits = %d, want %d", d.Commits, iters)
	}

	audit := eng.NewWorker(2)
	sum := uint64(0)
	for a := uint64(0); a < accounts; a++ {
		c, _ := checking.Get(audit, a)
		s, _ := savings.Get(audit, a)
		sum += c + s
	}
	if sum != 2*accounts*1000 {
		t.Fatalf("conservation violated: sum %d, want %d", sum, 2*accounts*1000)
	}
}

// TestShardedHintAuthoritative: a hint is consumed whole by the next Run
// only, and one that resolves to a single shard counts no footprint hit
// and latches nothing, even right after multi-shard hinted Runs.
func TestShardedHintAuthoritative(t *testing.T) {
	eng, err := Build("medley-sharded", Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	se := eng.(*shardedEngine)
	m1, _ := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
	m2, _ := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})

	keys := distinctShardKeys(t, se, 2, 0)
	init := eng.NewWorker(0)
	m1.Put(init, keys[0], 1000)
	m2.Put(init, keys[0], 1000)
	m2.Put(init, keys[1], 1000)

	tx := eng.NewWorker(1)
	for i := 0; i < 3; i++ {
		HintKeys(tx, keys[0], keys[1])
		transferOnce(t, tx, m1, m2, keys[0], keys[1])
	}
	// An unhinted cross-shard Run: the previous hint must not carry over.
	transferOnce(t, tx, m1, m2, keys[0], keys[1])
	if d := eng.Stats(); d.FootprintHits != 3 {
		t.Errorf("FootprintHits = %d after 3 hinted and 1 unhinted cross-shard Runs, want 3", d.FootprintHits)
	}

	base := eng.Stats()
	HintKeys(tx, keys[0], keys[0])
	transferOnce(t, tx, m1, m2, keys[0], keys[0])
	d := eng.Stats().Delta(base)
	if d.FootprintHits != 0 || d.LatchWaits != 0 {
		t.Errorf("single-shard hint counted a hit or latched: %+v", d)
	}
	if tx.(*shardedTx).latchKeys != nil {
		t.Error("single-shard hinted Run set a latch set")
	}
}

// TestShardedMispredictFallbackConservation is the concurrent stale-hint
// audit. Every Run hints keys on two shards A and B but also touches a third
// key the hint never named: at 8 shards that key lives on a third shard C,
// so the group grows past the hinted shard set; at 2 shards it shares a
// shard with a hinted key, so only the latch set is stale. Auditors sweep
// the whole ledger meanwhile. Conservation must hold throughout and at the
// end, and no attempt may restart: every closure execution beyond the
// first of its Run is a counted conflict retry.
func TestShardedMispredictFallbackConservation(t *testing.T) {
	const (
		perShard = 6
		perAcct  = 1000
		workers  = 4
		iters    = 250
	)
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := Build("medley-sharded", Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			se := eng.(*shardedEngine)
			ledger, _ := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
			// byShard[s] holds perShard accounts routed to shard s.
			byShard := make([][]uint64, shards)
			var all []uint64
			next := uint64(0)
			init := eng.NewWorker(0)
			for s := range byShard {
				for i := 0; i < perShard; i++ {
					k := keyOnShard(t, se, s, next)
					next = k + 1
					byShard[s] = append(byShard[s], k)
					all = append(all, k)
					ledger.Put(init, k, perAcct)
				}
			}
			want := uint64(len(all)) * perAcct

			base := eng.Stats()
			var execs atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					tx := eng.NewWorker(1 + id)
					rng := rand.New(rand.NewPCG(uint64(id)+7, uint64(shards)))
					pick := func(s int) uint64 { return byShard[s][rng.IntN(perShard)] }
					for i := 0; i < iters; i++ {
						sa := rng.IntN(shards)
						sb := (sa + 1 + rng.IntN(shards-1)) % shards
						sc := sb // 2 shards: the unhinted key shares B
						if shards > 2 {
							for sc == sa || sc == sb {
								sc = rng.IntN(shards)
							}
						}
						a, b, c := pick(sa), pick(sb), pick(sc)
						for c == b {
							c = pick(sc)
						}
						HintKeys(tx, a, b) // stale: the Run also moves value to c
						err := tx.Run(func() error {
							execs.Add(1)
							va, _ := ledger.Get(tx, a)
							if va < 2 {
								return nil
							}
							vb, _ := ledger.Get(tx, b)
							vc, _ := ledger.Get(tx, c)
							ledger.Put(tx, a, va-2)
							ledger.Put(tx, b, vb+1)
							ledger.Put(tx, c, vc+1)
							return nil
						})
						if err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(w)
			}
			stop := make(chan struct{})
			violation := make(chan string, 1)
			var rwg sync.WaitGroup
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				tx := eng.NewWorker(100)
				for {
					select {
					case <-stop:
						return
					default:
					}
					sum := uint64(0)
					err := tx.Run(func() error {
						sum = 0
						for _, k := range all {
							v, _ := ledger.Get(tx, k)
							sum += v
						}
						return nil
					})
					if err == nil && sum != want {
						select {
						case violation <- fmt.Sprintf("committed sweep sums %d, want %d", sum, want):
						default:
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			rwg.Wait()
			select {
			case v := <-violation:
				t.Fatalf("stale hint tore a transfer: %s", v)
			default:
			}

			final := eng.NewWorker(999)
			sum := uint64(0)
			for _, k := range all {
				v, _ := ledger.Get(final, k)
				sum += v
			}
			if sum != want {
				t.Fatalf("final sum %d != %d", sum, want)
			}
			// Retries also counts the auditor's, so the bound is one-sided:
			// a worker execution is either its Run's first or a conflict
			// retry, never a footprint restart.
			d := eng.Stats().Delta(base)
			if got, max := execs.Load(), uint64(workers*iters)+d.Retries; got > max {
				t.Errorf("%d worker executions for %d Runs and %d conflict retries: some attempt restarted", got, workers*iters, d.Retries)
			}
			if d.FootprintHits != uint64(workers*iters) {
				t.Errorf("FootprintHits = %d, want %d (every worker Run hinted two shards)", d.FootprintHits, workers*iters)
			}
		})
	}
}

// TestShardsOverParallelismWarningOnce pins the registry-wrapper dedupe:
// however many sharded engines a run constructs at an over-parallel shard
// count, the warning prints once per distinct count.
func TestShardsOverParallelismWarningOnce(t *testing.T) {
	var mu sync.Mutex
	var warned []string
	orig := warnShardsFn
	warnShardsFn = func(msg string) {
		mu.Lock()
		warned = append(warned, msg)
		mu.Unlock()
	}
	defer func() { warnShardsFn = orig }()

	// Counts chosen to be over-parallel on any host this test runs on, and
	// distinct from anything other tests construct, so the process-global
	// dedupe map is fresh for them.
	n1 := 4*runtime.GOMAXPROCS(0) + 7
	n2 := 4*runtime.GOMAXPROCS(0) + 9
	for i := 0; i < 3; i++ {
		eng, err := Build("medley-sharded", Config{Shards: n1})
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
	}
	if len(warned) != 1 {
		t.Fatalf("3 constructions at shards=%d warned %d times, want once: %v", n1, len(warned), warned)
	}
	eng, err := Build("original-sharded", Config{Shards: n2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if len(warned) != 2 {
		t.Fatalf("a distinct over-parallel count must warn anew: got %d warnings", len(warned))
	}
	// Non-sharded engines ignore Config.Shards and must not warn.
	if eng, err = Build("medley", Config{Shards: n1 + 2}); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if len(warned) != 2 {
		t.Fatalf("non-sharded engine warned about Shards it ignores: %v", warned)
	}
}

// TestShardedQueueHomeRoundRobinConcurrent pins the atomic round-robin
// home-shard assignment: queues created concurrently — including from
// concurrently built engines — spread exactly evenly, with no duplicate or
// lost counter slots (the data race an unsynchronized counter would have;
// run under -race in CI).
func TestShardedQueueHomeRoundRobinConcurrent(t *testing.T) {
	const (
		engines   = 4
		makers    = 4
		perMaker  = 8
		shardsCnt = 8
	)
	var ewg sync.WaitGroup
	for e := 0; e < engines; e++ {
		ewg.Add(1)
		go func() {
			defer ewg.Done()
			eng, err := Build("medley-sharded", Config{Shards: shardsCnt})
			if err != nil {
				t.Error(err)
				return
			}
			defer eng.Close()
			homes := make(chan int, makers*perMaker)
			var wg sync.WaitGroup
			for m := 0; m < makers; m++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perMaker; i++ {
						q, err := eng.NewUintQueue()
						if err != nil {
							t.Error(err)
							return
						}
						homes <- q.(*shardedQueue).home
					}
				}()
			}
			wg.Wait()
			close(homes)
			perShard := make([]int, shardsCnt)
			for h := range homes {
				perShard[h]++
			}
			for s, n := range perShard {
				if n != makers*perMaker/shardsCnt {
					t.Errorf("shard %d is home to %d queues, want %d (round-robin must stay exact under concurrency)",
						s, n, makers*perMaker/shardsCnt)
				}
			}
		}()
	}
	ewg.Wait()
}
