package main

import (
	"math/bits"
	"time"
)

// histSubBits sets the linear sub-buckets per power of two: 1024 of them,
// so a bucket is at most 0.1% wide.
const (
	histSubBits = 10
	histSub     = 1 << histSubBits
)

// hist is a fixed-size log-linear latency histogram. Record never
// allocates, so it can sit on the simulated hot path of the wake workload.
type hist struct {
	n       uint64
	buckets [64 * histSub]uint64
}

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1))
	sub := (v >> (e - histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + int(sub)
}

// histLow is the smallest value that lands in bucket i.
func histLow(i int) uint64 {
	if i < 2*histSub {
		return uint64(i)
	}
	e := i/histSub + histSubBits - 1
	sub := uint64(i % histSub)
	return (1 << e) | sub<<(e-histSubBits)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.n++
	h.buckets[histIndex(uint64(d))]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// quantile returns the lower edge of the bucket holding the q-th sample.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			return time.Duration(histLow(i))
		}
	}
	return time.Duration(histLow(len(h.buckets) - 1))
}
