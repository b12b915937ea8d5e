package workload

import (
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/txengine"
)

// counterStats is a stats source over one commit counter, standing in for
// an engine so Drive's bookkeeping can be checked exactly.
func counterStats(c *atomic.Uint64) func() txengine.Stats {
	return func() txengine.Stats { return txengine.Stats{Commits: c.Load()} }
}

// Worker construction happens before the clock starts: a slow newWorker
// must not be charged to the measured window.
func TestDriveExcludesWorkerConstruction(t *testing.T) {
	var commits atomic.Uint64
	res := Drive(counterStats(&commits), 2, 20*time.Millisecond, 0, false, func(int) func() uint64 {
		time.Sleep(100 * time.Millisecond)
		return func() uint64 {
			commits.Add(1)
			time.Sleep(100 * time.Microsecond)
			return 1
		}
	})
	if res.Duration >= 80*time.Millisecond {
		t.Fatalf("Duration = %v with a 20ms window: worker construction was timed", res.Duration)
	}
	if res.Txns == 0 || res.Threads != 2 {
		t.Fatalf("Txns = %d, Threads = %d", res.Txns, res.Threads)
	}
	if res.Stats.Commits != res.Txns {
		t.Fatalf("Stats.Commits = %d, Txns = %d: without warm-up both must span the same iterations", res.Stats.Commits, res.Txns)
	}
}

// With a warm-up, Txns and the stats delta both start at the measurement
// boundary: they agree to within the one iteration per worker that can
// straddle it, while the warm-up iterations are excluded from both.
func TestDriveWarmupAlignsStats(t *testing.T) {
	const threads = 2
	var commits, iters atomic.Uint64
	res := Drive(counterStats(&commits), threads, 30*time.Millisecond, 120*time.Millisecond, false, func(int) func() uint64 {
		return func() uint64 {
			time.Sleep(time.Millisecond)
			commits.Add(1)
			iters.Add(1)
			return 1
		}
	})
	diff := int64(res.Stats.Commits) - int64(res.Txns)
	if diff < -threads || diff > threads {
		t.Fatalf("Stats.Commits = %d, Txns = %d: the delta is not taken at the measurement boundary", res.Stats.Commits, res.Txns)
	}
	if total := iters.Load(); res.Txns == 0 || total < 2*res.Txns {
		t.Fatalf("Txns = %d of %d iterations: warm-up iterations were counted", res.Txns, total)
	}
}

// Latency percentiles are measured only when asked for.
func TestDriveLatencyOnlyWhenAsked(t *testing.T) {
	iter := func(int) func() uint64 {
		return func() uint64 { time.Sleep(50 * time.Microsecond); return 1 }
	}
	var commits atomic.Uint64
	res := Drive(counterStats(&commits), 2, 20*time.Millisecond, 0, false, iter)
	if res.P50 != 0 || res.P99 != 0 {
		t.Fatalf("lat=false measured percentiles: p50=%v p99=%v", res.P50, res.P99)
	}
	res = Drive(counterStats(&commits), 2, 20*time.Millisecond, 0, true, iter)
	if res.P50 < 40*time.Microsecond || res.P99 < res.P50 {
		t.Fatalf("lat=true: p50=%v p99=%v, want p50 >= the 50us iteration and p99 >= p50", res.P50, res.P99)
	}
}
