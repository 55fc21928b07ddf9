package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-memory log-linear histogram of non-negative
// nanosecond values. Each power of two splits into 256 sub-buckets,
// so a reported quantile is within 0.2% of the true sample: fine
// enough that run-to-run noise, not bucketing, decides the digits,
// while a whole phase of latencies costs one 112 KiB array instead of
// a slice growing with the load (which would pollute the heap metrics).
type hist struct {
	counts []uint64
	n      uint64
	sum    float64
	sumSq  float64
	max    int64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	histBuckets = histSub + (63-histSubBits)*histSub
)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := int(v>>uint(exp-histSubBits)) - histSub
	return histSub + (exp-histSubBits)*histSub + sub
}

// histMid returns a representative value for a bucket: its midpoint.
func histMid(idx int) float64 {
	if idx < histSub {
		return float64(idx)
	}
	exp := (idx-histSub)/histSub + histSubBits
	sub := (idx - histSub) % histSub
	lo := float64(int64(histSub+sub) << uint(exp-histSubBits))
	width := float64(int64(1) << uint(exp-histSubBits))
	return lo + width/2
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
	h.sum += float64(v)
	h.sumSq += float64(v) * float64(v)
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.sumSq += o.sumSq
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// stdErr is the standard error of the mean.
func (h *hist) stdErr() float64 {
	if h.n < 2 {
		return 0
	}
	n := float64(h.n)
	variance := (h.sumSq - h.sum*h.sum/n) / (n - 1)
	return math.Sqrt(max(variance, 0) / n)
}

// rank returns the value at 0-based sample rank r in sorted order.
func (h *hist) rank(r uint64) float64 {
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > r {
			return histMid(i)
		}
	}
	return float64(h.max)
}

// quantileOf returns the q-quantile of xs, interpolating between the
// order statistics around rank q*(len-1); 0 for no values.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is an anecdote, not a percentile.
const minBeyond = 10

// nearestRank is the 0-based rank of the q-quantile among n samples.
func nearestRank(n uint64, q float64) uint64 {
	return uint64(max(math.Ceil(q*float64(n)), 1)) - 1
}

// supported reports whether n samples support quantile q, i.e. leave
// at least minBeyond samples strictly above its rank.
func supported(n uint64, q float64) bool {
	return n > 0 && n-1-nearestRank(n, q) >= minBeyond
}

// quantile returns the q-quantile (nearest rank) in nanoseconds, or an
// error naming the sample count when the sample cannot support it.
func (h *hist) quantile(q float64) (float64, error) {
	if !supported(h.n, q) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have n=%d", q*100, minBeyond, h.n)
	}
	return h.rank(nearestRank(h.n, q)), nil
}

// pctLabel renders a timing as the median and the given tail
// percentile with the sample count they rest on.
func (h *hist) pctLabel(q float64) string {
	p50, err50 := h.quantile(0.5)
	pq, errq := h.quantile(q)
	if err50 != nil || errq != nil {
		return fmt.Sprintf("unsupported (n=%d)", h.n)
	}
	return fmt.Sprintf("p50=%.4fms p%g=%.4fms (n=%d)", p50/1e6, q*100, pq/1e6, h.n)
}
