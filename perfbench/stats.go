package main

import (
	"math"
	"math/bits"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule on a sorted copy; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// hist is a log-linear histogram of non-negative integer samples (32
// sub-buckets per power of two, under 3.2% relative error), for streams too
// long to keep sample by sample (frame delivery latencies in a storm).
type hist struct {
	counts [59 * 32]uint64
	n      uint64
}

func histBucket(v int64) int {
	if v < 64 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 6 // v >> e lies in [32, 64)
	return e*32 + int(uint64(v)>>e)
}

func histLow(b int) int64 {
	if b < 64 {
		return int64(b)
	}
	e := b/32 - 1
	return int64(b-e*32) << e
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

// quantile returns the lower edge of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return histLow(b)
		}
	}
	return 0
}
