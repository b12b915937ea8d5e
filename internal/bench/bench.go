// Package bench is the harness that regenerates the Medley paper's
// evaluation (Section 6): the transactional microbenchmark of Figures 7–8,
// the latency study of Figure 10, and the supporting machinery for the
// TPC-C study of Figure 9 (see package tpcc).
//
// Methodology follows Section 6.1: structures are preloaded with
// Preload key-value pairs drawn from a KeySpace of uniformly random 8-byte
// keys; each thread then composes and executes transactions of 1–10
// operations, choosing get / insert / remove in a configured ratio (0:1:1,
// 2:1:1, or 18:1:1 in the paper).
package bench

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"medley/internal/workload"
)

// OpKind selects a map operation.
type OpKind uint8

const (
	Get OpKind = iota
	Insert
	Remove
)

// Op is one operation of a generated transaction.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64
}

// Workload describes the microbenchmark configuration.
type Workload struct {
	KeySpace uint64 // keys drawn uniformly from [0, KeySpace)
	Preload  int    // pairs inserted before measurement
	GetW     int    // get weight   (paper: 0, 2, or 18)
	InsW     int    // insert weight (paper: 1)
	RemW     int    // remove weight (paper: 1)
	MinOps   int    // min ops per transaction (paper: 1)
	MaxOps   int    // max ops per transaction (paper: 10)
}

// PaperWorkload returns the paper's configuration for a get:insert:remove
// ratio, at a scale factor (1.0 = the paper's 1M keyspace / 0.5M preload).
func PaperWorkload(getW, insW, remW int, scale float64) Workload {
	ks := uint64(float64(1_000_000) * scale)
	if ks < 16 {
		ks = 16
	}
	return Workload{
		KeySpace: ks,
		Preload:  int(ks / 2),
		GetW:     getW, InsW: insW, RemW: remW,
		MinOps: 1, MaxOps: 10,
	}
}

// Ratio returns "g:i:r" for reports.
func (w Workload) Ratio() string { return fmt.Sprintf("%d:%d:%d", w.GetW, w.InsW, w.RemW) }

// GenTx fills buf with a random transaction and returns it.
func (w Workload) GenTx(rng *rand.Rand, buf []Op) []Op {
	n := w.MinOps
	if w.MaxOps > w.MinOps {
		n += rng.IntN(w.MaxOps - w.MinOps + 1)
	}
	buf = buf[:0]
	total := w.GetW + w.InsW + w.RemW
	for i := 0; i < n; i++ {
		k := rng.Uint64N(w.KeySpace)
		r := rng.IntN(total)
		var kind OpKind
		switch {
		case r < w.GetW:
			kind = Get
		case r < w.GetW+w.InsW:
			kind = Insert
		default:
			kind = Remove
		}
		buf = append(buf, Op{Kind: kind, Key: k, Val: k + 1})
	}
	return buf
}

// RunThroughput preloads sys, drives threads workers for dur after a
// warm-up of warmup, and reports aggregate transaction throughput plus the
// engine's stats delta over the measured window.
func RunThroughput(sys *System, wl Workload, threads int, dur, warmup time.Duration) workload.Result {
	return drive(sys, wl, threads, dur, warmup, 0x9e3779b97f4a7c15, (*Worker).RunTx)
}

// LatencyMode selects the Figure 10 variant.
type LatencyMode int

const (
	// ModeOriginal runs the untransformed structure, ops back to back.
	ModeOriginal LatencyMode = iota
	// ModeTxOff runs the NBTC-transformed structure without transactions.
	ModeTxOff
	// ModeTxOn wraps each generated group in a transaction.
	ModeTxOn
)

func (m LatencyMode) String() string {
	switch m {
	case ModeOriginal:
		return "Original"
	case ModeTxOff:
		return "TxOff"
	case ModeTxOn:
		return "TxOn"
	}
	return "?"
}

// RunLatency preloads sys and drives threads workers for dur after a
// warm-up of warmup, each running generated op groups as transactions
// (ModeTxOn) or back to back without one (ModeOriginal, ModeTxOff), as
// Figure 10 does. NsPerTx turns the result into the figure's metric.
func RunLatency(sys *System, wl Workload, mode LatencyMode, threads int, dur, warmup time.Duration) workload.Result {
	run := (*Worker).RunOpsNoTx
	if mode == ModeTxOn {
		run = (*Worker).RunTx
	}
	return drive(sys, wl, threads, dur, warmup, 77, run)
}

// NsPerTx is Figure 10's metric: average wall-clock ns per transaction (or
// per op group, for the non-transactional modes) seen by one thread.
func NsPerTx(res workload.Result) float64 {
	return float64(res.Duration.Nanoseconds()) * float64(res.Threads) / float64(res.Txns)
}

// drive preloads sys and measures it through workload.Drive: each worker
// applies generated transactions with run, drawing them from an rng seeded
// by its thread id and seed.
func drive(sys *System, wl Workload, threads int, dur, warmup time.Duration, seed uint64, run func(*Worker, []Op)) workload.Result {
	sys.Preload(wl)
	res := workload.Drive(sys.eng.Stats, threads, dur, warmup, false, func(tid int) func() uint64 {
		w := sys.NewWorker(tid)
		rng := rand.New(rand.NewPCG(uint64(tid)+1, seed))
		buf := make([]Op, 0, wl.MaxOps)
		return func() uint64 {
			run(w, wl.GenTx(rng, buf))
			return 1
		}
	})
	res.System = sys.Name()
	return res
}

// DefaultThreadSweep returns the thread counts used for throughput figures,
// scaled to the host (the paper sweeps 1..80 on an 80-hyperthread box).
func DefaultThreadSweep() []int {
	max := runtime.GOMAXPROCS(0)
	sweep := []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 80}
	var out []int
	for _, t := range sweep {
		if t <= max {
			out = append(out, t)
		}
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
