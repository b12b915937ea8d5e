package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/txengine"
)

// windows is the number of equal windows the measured seconds are cut
// into. Every end-to-end figure is the median over windows, so a burst of
// interference on the host, or a garbage-collection cycle, moves a window,
// not the result.
const windows = 20

// phase is one stretch of a closed-loop run. Units of work are attributed
// to the phase they start in.
type phase struct {
	dur     time.Duration
	measure bool // count units and record their latency
	trace   bool // record spans for one unit in traceSample
}

// unitFn runs one unit of closed-loop work. rec is non-nil when the unit is
// traced. It reports whether the unit was read-only and whether it failed.
type unitFn func(rec *recorder) (read, failed bool)

// tally is the outcome of the units of one phase or window.
type tally struct {
	all, read, write hist
	done, failed     uint64
	elapsed          time.Duration
}

func (t *tally) merge(o *tally) {
	t.all.merge(&o.all)
	t.read.merge(&o.read)
	t.write.merge(&o.write)
	t.done += o.done
	t.failed += o.failed
	t.elapsed = max(t.elapsed, o.elapsed)
}

func (t *tally) perSec() float64 { return float64(t.done) / t.elapsed.Seconds() }

// closedLoop runs one goroutine per unit function, each issuing its next
// unit as soon as the previous one returns, through the phases in order.
// boundary(i) runs as phase i starts and boundary(len(phases)) after the
// last one ends, while the workers are still running. It returns the
// per-phase tallies merged over workers and each worker's span recorder.
func closedLoop(units []unitFn, phases []phase, boundary func(i int)) ([]tally, []*recorder) {
	out := make([]tally, len(phases))
	recs := make([]*recorder, len(units))
	var (
		cur   atomic.Int32
		mu    sync.Mutex
		wg    sync.WaitGroup
		ready sync.WaitGroup
		start = make(chan struct{})
	)
	for w, unit := range units {
		recs[w] = newRecorder()
		wg.Add(1)
		ready.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			local := make([]tally, len(phases))
			var n uint64
			ready.Done()
			<-start
			for {
				p := int(cur.Load())
				if p >= len(phases) {
					break
				}
				var r *recorder
				if phases[p].trace && n%traceSample == 0 {
					r = rec
					r.newTrace()
				}
				n++
				t0 := now()
				read, failed := unit(r)
				d := time.Duration(now() - t0)
				if !phases[p].measure {
					continue
				}
				t := &local[p]
				t.done++
				if failed {
					t.failed++
				}
				t.all.record(d)
				if read {
					t.read.record(d)
				} else {
					t.write.record(d)
				}
			}
			mu.Lock()
			for i := range local {
				out[i].merge(&local[i])
			}
			mu.Unlock()
		}(recs[w])
	}
	ready.Wait()
	boundary(0)
	close(start)
	t0 := time.Now()
	for i, ph := range phases {
		time.Sleep(ph.dur)
		t1 := time.Now()
		out[i].elapsed = t1.Sub(t0)
		t0 = t1
		cur.Store(int32(i + 1))
		boundary(i + 1)
	}
	wg.Wait()
	return out, recs
}

// measurePhases is the closed-loop schedule: a warmup, then the measured
// seconds in windows. On a traced run every other window is traced, so the
// tracing overhead compares interleaved traced and untraced windows.
func measurePhases(cfg runConfig) []phase {
	ps := []phase{{dur: warmup}}
	for i := 0; i < windows; i++ {
		ps = append(ps, phase{dur: cfg.seconds / windows, measure: true, trace: cfg.trace && i%2 == 1})
	}
	return ps
}

// splitWindows returns the measured untraced and traced tallies.
func splitWindows(out []tally, phases []phase) (plain, traced []*tally) {
	for i := range out {
		switch {
		case !phases[i].measure:
		case phases[i].trace:
			traced = append(traced, &out[i])
		default:
			plain = append(plain, &out[i])
		}
	}
	return plain, traced
}

// outcomes records the measured units attempted and failed.
func (r *result) outcomes(attempted, failed uint64) {
	r.attempted, r.failed = attempted, failed
	r.e2e["ok_frac"] = 1 - ratio(float64(failed), float64(attempted))
}

// countUnits records the outcomes of closed-loop tallies, whose every unit
// was attempted and finished.
func (r *result) countUnits(ts []*tally) {
	var attempted, failed uint64
	for _, t := range ts {
		attempted += t.done
		failed += t.failed
	}
	r.outcomes(attempted, failed)
}

// throughput reports the median over windows of units completed per second.
func (r *result) throughput(ws []*tally) {
	r.e2e["throughput_per_s"] = medianOf(ws, func(t *tally) float64 { return t.perSec() })
}

// latencies reports the median over windows of each latency percentile,
// with the number of samples behind it. The bounded tail is p95: on a
// shared 2-CPU host a garbage-collection cycle or a stall of the machine
// decides p99, which then swings by a third or more between identical
// runs. p99
// over all windows is recorded as an unbounded figure alongside.
func (r *result) latencies(ws []*tally) {
	for _, l := range []struct {
		prefix string
		h      func(*tally) *hist
	}{
		{"", func(t *tally) *hist { return &t.all }},
		{"read_", func(t *tally) *hist { return &t.read }},
		{"write_", func(t *tally) *hist { return &t.write }},
	} {
		var pooled hist
		for _, t := range ws {
			pooled.merge(l.h(t))
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50_us", 0.50}, {"p95_us", 0.95}} {
			r.e2e[l.prefix+q.name] = medianOf(ws, func(t *tally) float64 { return l.h(t).us(q.q) })
			r.samples[l.prefix+q.name] = pooled.n
		}
		r.p99[l.prefix+"p99_us"] = pooled.us(0.99)
	}
	r.samples["windows"] = uint64(len(ws))
}

// overhead reports the traced windows' throughput loss against the
// untraced ones.
func (r *result) overhead(plain, traced []*tally) {
	perSec := func(t *tally) float64 { return t.perSec() }
	r.layer["trace.overhead_frac"] = 1 - ratio(medianOf(traced, perSec), medianOf(plain, perSec))
}

// engineLayers reports the per-commit engine counters of a Stats delta.
func (r *result) engineLayers(d txengine.Stats) {
	c := float64(d.Commits)
	r.layer["txengine.aborts_per_commit"] = ratio(float64(d.Aborts), c)
	r.layer["sharded.latch_waits_per_commit"] = ratio(float64(d.LatchWaits), c)
	r.layer["sharded.latch_fallbacks_per_commit"] = ratio(float64(d.LatchFallbacks), c)
	r.layer["sharded.xshard_restarts_per_commit"] = ratio(float64(d.CrossShardRestarts), c)
	r.layer["sharded.fp_hit_ratio"] = ratio(float64(d.FootprintHits), float64(d.FootprintHits+d.FootprintMisses))
	r.layer["snapshot.stale_share"] = ratio(float64(d.SnapshotStale), float64(d.SnapshotReads))
}

// idle reports per-layer metrics of layers the workload does not run: they
// did no work, so they read 0.
func (r *result) idle(names ...string) {
	for _, n := range names {
		r.layer[n] = 0
	}
}

// idleServer reports the serving-tier metrics of a workload without a server.
func (r *result) idleServer() {
	r.idle("server.batch_size", "server.lane_share", "server.combined_share", "server.shed_share",
		"server.get_overhead_us", "server.write_overhead_us", "open.read_p50_us", "open.read_p99_us",
		"open.write_p50_us", "open.write_p99_us", "gen.lag_us")
}

func medianOf(ws []*tally, f func(*tally) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// heapMB forces a collection and returns the live heap in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupRuns is how many times a run builds its workload's system; setup_s
// is the median, which one slow build (a cold heap, a busy host) cannot move.
const setupRuns = 9

// medianSetup runs build n times, keeping the last instance and releasing
// the others, and returns it with the median build time in seconds.
func medianSetup[T any](n int, build func() (T, error), release func(T)) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			release(inst)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		inst = v
	}
	return inst, median(times), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
