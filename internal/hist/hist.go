// Package hist is the log-bucketed latency histogram shared by the load
// generator (per-op-type latencies) and the router (per-shard upstream
// latencies).
package hist

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Hist is a log-bucketed latency histogram: bucket i holds observations
// whose microsecond count has bit length i, so bucket boundaries are
// powers of two and merging histograms is addition. Quantiles report the
// upper bound of the containing bucket — a deliberate overestimate, stable
// under merge order, never under-promising a percentile.
type Hist struct {
	buckets [64]uint64
	count   uint64
	max     time.Duration
}

// Observe records one latency; negative observations clamp to zero.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bits.Len64(uint64(d/time.Microsecond))]++
	h.count++
	if d > h.max {
		h.max = d
	}
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	h.count += o.count
	if o.max > h.max {
		h.max = o.max
	}
}

// Count is the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Max is the largest observed latency.
func (h *Hist) Max() time.Duration { return h.max }

// Quantile returns the upper bound of the bucket containing the q-th
// observation (0 < q <= 1); zero when the histogram is empty. The q-th
// observation is the nearest rank ⌈q·n⌉, so at least a q share of the
// observations lie at or below the reported bound.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := nearestRank(q, h.count)
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			if i == 0 {
				return 0
			}
			// Bucket i holds microsecond counts in [2^(i-1), 2^i).
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return h.max
}

// String summarizes the histogram for logs and reports.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d p50<=%v p90<=%v p99<=%v max=%v",
		h.count, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.max)
}

// nearestRank is ⌈q·n⌉, except that a product within float rounding of an
// integer counts as that integer: 0.07·100 evaluates to 7.000000000000001,
// and its rank is 7, not 8.
func nearestRank(q float64, n uint64) uint64 {
	x := q * float64(n)
	if r := math.Round(x); math.Abs(x-r) <= 1e-9*x {
		return uint64(r)
	}
	return uint64(math.Ceil(x))
}
