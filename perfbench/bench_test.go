package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload briefly, untraced and traced: its
// output checks must pass and every metric of the mode must be reported.
func TestWorkloadsSmoke(t *testing.T) {
	if kvWorkload.KeySpace != 100_000 || kvWorkload.Preload != 50_000 {
		t.Fatalf("kv-txn workload is %d keys, %d preloaded; want 100000 and 50000", kvWorkload.KeySpace, kvWorkload.Preload)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := wl.run(runConfig{seed: 7, seconds: 300 * time.Millisecond, trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			for _, c := range res.checks {
				t.Errorf("%s traced=%v: check failed: %s", wl.Name, traced, c)
			}
			out, err := report(res, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if out.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", wl.Name, traced, out.Failed, out.Attempted)
			}
			if !traced {
				for _, m := range endToEnd {
					if out.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, out.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestSpecFileCurrent keeps BENCHMARK.json in step with the tables in
// spec.go; regenerate it with `go run . --write-spec ../BENCHMARK.json`.
func TestSpecFileCurrent(t *testing.T) {
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(specDocument(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(have), want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with go run . --write-spec ../BENCHMARK.json")
	}
}

// TestHistResolution checks percentiles against exact order statistics:
// the histogram must resolve far finer than any metric's bound.
func TestHistResolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h hist
	var raw []float64
	for i := 0; i < 100_000; i++ {
		v := time.Duration(rng.ExpFloat64() * 20_000)
		h.record(v)
		raw = append(raw, float64(v))
	}
	slices.Sort(raw)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := raw[int(math.Ceil(q*float64(len(raw))))-1]
		if got := h.quantile(q); math.Abs(got-exact)/exact > 1.0/128 {
			t.Errorf("q%v: hist %v, exact %v", q, got, exact)
		}
	}
}
