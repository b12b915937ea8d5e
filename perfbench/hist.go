package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram in nanoseconds: values below 128
// are exact, larger ones fall into 128 sub-buckets per power of two, so a
// bucket is at most 1/128 of its value wide. Percentiles interpolate by
// rank inside the bucket. Fixed size, no allocation per sample.
type hist struct {
	n      uint64
	counts [subBuckets * (64 - subBits + 1)]uint64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
)

func histIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return subBuckets + e*subBuckets + int(v>>e) - subBuckets
}

// histRange returns the lower bound and width of bucket i.
func histRange(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	e := (i - subBuckets) / subBuckets
	mant := uint64(i-subBuckets)%subBuckets + subBuckets
	return float64(mant << e), float64(uint64(1) << e)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, w := histRange(i)
			return lo + w*(rank-seen-0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, w := histRange(len(h.counts) - 1)
	return lo + w
}

// us returns the q-quantile in microseconds.
func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }
