package workload

import (
	"math/rand/v2"
	"sync/atomic"

	"medley/internal/txengine"
)

// cacheScenario is a read-mostly caching tier over a backing store, both
// transactional maps on the same engine. Lookups probe the cache with a
// read-only transaction; misses refill from the backing store and insert
// the cached copy in one transaction; updates write the backing store and
// invalidate the cached entry in one transaction. Because refill and
// invalidate-with-update are each atomic, the cache can never serve a value
// the backing store no longer holds — the post-run audit counts stale
// entries, which must be zero on every transactional engine. Keys are drawn
// Zipfian, so hot keys contend on both the cache entry and the backing row.
var cacheScenario = Scenario{
	Key:    "cache",
	Doc:    "Zipfian read-mostly cache with transactional invalidate and refill",
	CanRun: needDynamicTx,
	run:    runCache,
}

func runCache(eng txengine.Engine, caps txengine.Caps, cfg Config) (Result, error) {
	kind := mapKind(caps)
	keys := uint64(cfg.scaled(16384, 256))
	backing, err := eng.NewUintMap(txengine.MapSpec{Kind: kind, Buckets: int(keys)})
	if err != nil {
		return Result{}, err
	}
	cache, err := eng.NewUintMap(txengine.MapSpec{Kind: kind, Buckets: int(keys)})
	if err != nil {
		return Result{}, err
	}

	// Preload the backing store (chunked transactions keep descriptors and
	// lock sets small).
	loader := eng.NewWorker(cfg.threads())
	const chunk = 256
	for lo := uint64(0); lo < keys; lo += chunk {
		hi := min(lo+chunk, keys)
		if err := loader.Run(func() error {
			for k := lo; k < hi; k++ {
				backing.Put(loader, k, k*3+1)
			}
			return nil
		}); err != nil {
			return Result{}, err
		}
	}

	var hits, misses, updates, conflictsLost atomic.Uint64
	var snapFallbacks atomic.Uint64
	readPct := cfg.readPct()
	snapshot := cfg.Snapshot
	// The Aux counters span the whole run, warm-up included: the coherence
	// audit below must see every update.
	res := Drive(eng.Stats, cfg.threads(), cfg.dur(), cfg.Warmup, cfg.Latency, func(tid int) func() uint64 {
		tx := eng.NewWorker(tid)
		// math/rand/v2 PCG, like workqueue/transfer: seeded straight from
		// the uint64 (Seed, tid) pair, so a Seed near MaxInt64 can't
		// overflow the int64 cast the legacy source needed.
		rng := rand.New(rand.NewPCG(cfg.seed(), uint64(tid)+1))
		zipf := rand.NewZipf(rng, cfg.zipfS(), 1, keys-1)
		var vseq uint64
		return func() uint64 {
			k := zipf.Uint64()
			if rng.IntN(100) < readPct {
				// Lookup: cheap read-only probe first — a validation-free
				// MVCC snapshot in -snapshot mode (falling back to the OCC
				// read if the engine can't, counted so conformance can
				// assert the fallback never fires on CapSnapshot engines).
				var ok bool
				probe := func() { _, ok = cache.Get(tx, k) }
				if snapshot {
					if !txengine.SnapshotRead(tx, probe) {
						snapFallbacks.Add(1)
						tx.RunRead(probe)
					}
				} else {
					tx.RunRead(probe)
				}
				if ok {
					hits.Add(1)
					return 1
				}
				// Miss: refill from the backing store, atomically with the
				// re-probe (another worker may have refilled meanwhile).
				if err := tx.Run(func() error {
					if _, ok := cache.Get(tx, k); ok {
						return nil
					}
					v, _ := backing.Get(tx, k)
					cache.Insert(tx, k, v)
					return nil
				}); err != nil {
					conflictsLost.Add(1)
					return 0
				}
				misses.Add(1)
				return 1
			}
			// Update: new backing value + cache invalidation, atomically.
			vseq++
			v := uint64(tid+1)<<40 | vseq
			if err := tx.Run(func() error {
				backing.Put(tx, k, v)
				cache.Remove(tx, k)
				return nil
			}); err != nil {
				conflictsLost.Add(1)
				return 0
			}
			updates.Add(1)
			return 1
		}
	})

	// Post-run audit (single-threaded): every cached entry must match the
	// backing store.
	audit := eng.NewWorker(cfg.threads() + 1)
	stale := uint64(0)
	for k := uint64(0); k < keys; k++ {
		if cv, ok := cache.Get(audit, k); ok {
			if bv, _ := backing.Get(audit, k); cv != bv {
				stale++
			}
		}
	}

	res.Aux = []AuxCount{
		{"hits", hits.Load()},
		{"misses", misses.Load()},
		{"updates", updates.Load()},
		{"errors", conflictsLost.Load()},
		{"stale", stale},
	}
	if snapshot {
		res.Aux = append(res.Aux, AuxCount{"snapfallback", snapFallbacks.Load()})
	}
	return res, nil
}
