package workload

import (
	"fmt"
	"testing"
	"time"

	"medley/internal/txengine"
)

func smokeConfig() Config {
	return Config{Threads: 4, Dur: 120 * time.Millisecond, Scale: 0.05, Seed: 7}
}

// TestSmoke runs every scenario on its full default engine series with a
// tiny configuration and asserts the invariants each scenario audits:
// no lost or duplicated jobs, no stale cache entries, no missing money.
// CI runs this as the workload smoke job.
func TestSmoke(t *testing.T) {
	for _, sc := range Scenarios() {
		engines := Engines(sc.Key)
		if len(engines) == 0 {
			t.Fatalf("%s: empty default engine series", sc.Key)
		}
		for _, engine := range engines {
			t.Run(sc.Key+"/"+engine, func(t *testing.T) {
				res, err := Run(sc.Key, engine, smokeConfig())
				if err != nil {
					t.Fatal(err)
				}
				if res.Txns == 0 {
					t.Fatal("no transactions completed")
				}
				if res.Throughput <= 0 {
					t.Fatalf("throughput %v", res.Throughput)
				}
				b, _ := txengine.Lookup(engine)
				if b.Caps.Has(txengine.CapTx) && res.Stats.Commits == 0 {
					t.Fatalf("transactional engine reported zero commits: %+v", res.Stats)
				}
				transactional := b.Caps.Has(txengine.CapTx | txengine.CapDynamicTx)
				switch sc.Key {
				case "workqueue":
					if transactional {
						for _, bad := range []string{"lost", "dup", "violations"} {
							if n := res.AuxN(bad); n != 0 {
								t.Errorf("%s=%d on a transactional engine (%s)", bad, n, res.AuxString())
							}
						}
					}
					if res.AuxN("produced") == 0 || res.AuxN("claimed") == 0 {
						t.Errorf("workqueue made no progress: %s", res.AuxString())
					}
				case "cache":
					if n := res.AuxN("stale"); n != 0 {
						t.Errorf("stale=%d cache entries after atomic invalidation (%s)", n, res.AuxString())
					}
					if res.AuxN("hits")+res.AuxN("misses") == 0 {
						t.Errorf("cache made no lookups: %s", res.AuxString())
					}
				case "transfer":
					if n := res.AuxN("imbalance"); n != 0 {
						t.Errorf("imbalance=%d: money not conserved (%s)", n, res.AuxString())
					}
					if res.AuxN("transfers") == 0 {
						t.Errorf("no transfers completed: %s", res.AuxString())
					}
				}
			})
		}
	}
}

// TestKnobs drives the scenario tunables end to end: a sharded engine at an
// explicit shard count, a hot transfer (few accounts), a skewed all-update
// cache mix, and latency percentiles — every audit must still hold.
func TestKnobs(t *testing.T) {
	cfg := smokeConfig()
	cfg.Engine.Shards = 8
	cfg.Accounts = 4 // four hot accounts: maximum cross-map contention
	cfg.Latency = true
	res, err := Run("transfer", "medley-sharded", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.AuxN("imbalance"); n != 0 {
		t.Errorf("hot sharded transfer lost money: imbalance=%d (%s)", n, res.AuxString())
	}
	if res.AuxN("transfers") == 0 {
		t.Errorf("no transfers completed: %s", res.AuxString())
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("latency percentiles not measured or inverted: p50=%v p99=%v", res.P50, res.P99)
	}

	cfg = smokeConfig()
	cfg.ZipfS = 2.0
	cfg.ReadPct = -1 // all updates
	res, err = Run("cache", "medley", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuxN("hits")+res.AuxN("misses") != 0 {
		t.Errorf("ReadPct<0 still performed lookups: %s", res.AuxString())
	}
	if res.AuxN("updates") == 0 {
		t.Errorf("all-update mix made no updates: %s", res.AuxString())
	}
	if n := res.AuxN("stale"); n != 0 {
		t.Errorf("stale=%d under skewed updates (%s)", n, res.AuxString())
	}
	if res.P50 != 0 || res.P99 != 0 {
		t.Errorf("latency percentiles measured without Config.Latency: p50=%v p99=%v", res.P50, res.P99)
	}
}

// TestTransferConservation audits money conservation on the sharded engine
// across the hint matrix: shard counts 2 and 8, hints on (cross-shard
// transfers latch their keys) and off (purely optimistic lazy join), with
// Zipf-skewed draws so cross-shard transfers pile onto a few hot accounts.
// Every cross-shard commit is one shared-fate group, so any atomicity hole
// in the join or the group commit shows up as an imbalance here.
func TestTransferConservation(t *testing.T) {
	for _, shards := range []int{2, 8} {
		for _, noHints := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/latch", shards)
			if noHints {
				// Unhinted transfers take no latches.
				name = fmt.Sprintf("shards=%d/nolatch", shards)
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig()
				cfg.Engine.Shards = shards
				cfg.NoHints = noHints
				cfg.Accounts = 64 // small: most transfers cross shards
				cfg.ZipfS = 1.4   // skewed: hot accounts collide constantly
				res, err := Run("transfer", "medley-sharded", cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := res.AuxN("imbalance"); n != 0 {
					t.Errorf("imbalance=%d: money not conserved (%s)", n, res.AuxString())
				}
				if res.AuxN("transfers") == 0 {
					t.Errorf("no transfers completed: %s", res.AuxString())
				}
				if noHints && (res.Stats.LatchWaits != 0 || res.Stats.FootprintHits != 0) {
					t.Errorf("unhinted run latched or counted hits: %+v", res.Stats)
				}
			})
		}
	}
}

// TestLatHist pins the histogram math the percentile mode relies on.
func TestLatHist(t *testing.T) {
	h := &latHist{}
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	p50 := h.percentile(0.50)
	if p50 < 400*time.Microsecond || p50 > 600*time.Microsecond {
		t.Errorf("p50 of uniform 1..1000us = %v, want ~500us", p50)
	}
	p99 := h.percentile(0.99)
	if p99 < 900*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Errorf("p99 of uniform 1..1000us = %v, want ~990us", p99)
	}
	if h.percentile(1.0) < p99 {
		t.Error("percentile not monotone")
	}
	var other latHist
	other.record(time.Millisecond)
	h.merge(&other)
	if h.count != 1001 {
		t.Errorf("merged count = %d, want 1001", h.count)
	}
	empty := &latHist{}
	if empty.percentile(0.99) != 0 {
		t.Error("empty histogram must report zero")
	}
}

// TestCapabilityGating pins which engines each scenario admits: the
// workqueue runs exactly on the queue-capable engines (Medley family +
// Original), and the map scenarios exclude the static (LFTT) and
// non-transactional (Original) backends.
func TestCapabilityGating(t *testing.T) {
	in := func(list []string, k string) bool {
		for _, v := range list {
			if v == k {
				return true
			}
		}
		return false
	}
	wq := Engines("workqueue")
	for _, want := range []string{"medley", "txmontage", "original"} {
		if !in(wq, want) {
			t.Errorf("workqueue series missing %q: %v", want, wq)
		}
	}
	for _, deny := range []string{"onefile", "tdsl", "lftt", "boost"} {
		if in(wq, deny) {
			t.Errorf("workqueue series must exclude %q (no CapQueue): %v", deny, wq)
		}
	}
	for _, sc := range []string{"cache", "transfer"} {
		series := Engines(sc)
		for _, deny := range []string{"lftt", "original"} {
			if in(series, deny) {
				t.Errorf("%s series must exclude %q: %v", sc, deny, series)
			}
		}
		for _, want := range []string{"medley", "onefile", "tdsl", "boost"} {
			if !in(series, want) {
				t.Errorf("%s series missing %q: %v", sc, want, series)
			}
		}
	}

	if _, err := Run("no-such-workload", "medley", smokeConfig()); err == nil {
		t.Error("unknown scenario must fail")
	}
	if _, err := Run("cache", "no-such-engine", smokeConfig()); err == nil {
		t.Error("unknown engine must fail")
	}
	if _, err := Run("workqueue", "boost", smokeConfig()); err == nil {
		t.Error("workqueue on boost must be rejected (queues have no inverses)")
	}
	if _, err := Run("cache", "original", smokeConfig()); err == nil {
		t.Error("cache on original must be rejected (no transactions)")
	}
}
