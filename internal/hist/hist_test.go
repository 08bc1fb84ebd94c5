package hist

import (
	"testing"
	"time"
)

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket (64us, 128us]
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond) // bucket (4096us, 8192us]
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Quantile(0.5); got != 128*time.Microsecond {
		t.Errorf("p50 %v, want 128us bucket bound", got)
	}
	if got := h.Quantile(0.99); got != 8192*time.Microsecond {
		t.Errorf("p99 %v, want 8192us bucket bound", got)
	}
	if h.Max() != 5*time.Millisecond {
		t.Errorf("max %v", h.Max())
	}

	// Merge is bucket addition: two halves equal the whole.
	var a, b Hist
	for i := 0; i < 45; i++ {
		a.Observe(100 * time.Microsecond)
		b.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 5; i++ {
		a.Observe(5 * time.Millisecond)
		b.Observe(5 * time.Millisecond)
	}
	a.Merge(&b)
	if a.Count() != h.Count() || a.Quantile(0.5) != h.Quantile(0.5) ||
		a.Quantile(0.99) != h.Quantile(0.99) || a.Max() != h.Max() {
		t.Errorf("merged %s, whole %s", a.String(), h.String())
	}

	var empty Hist
	if empty.Quantile(0.99) != 0 || empty.Max() != 0 {
		t.Error("empty histogram reports nonzero latency")
	}
}

// TestQuantileNearestRank pins the quantile rank to the nearest rank
// ⌈q·n⌉: the reported bound must cover at least a q share of the
// observations, and a product within float rounding of an integer must
// not round up past it.
func TestQuantileNearestRank(t *testing.T) {
	const fast, slow = 10 * time.Microsecond, time.Millisecond // buckets (8us, 16us] and (512us, 1024us]
	const fastBound, slowBound = 16 * time.Microsecond, 1024 * time.Microsecond
	for _, tc := range []struct {
		name       string
		fast, slow int
		q          float64
		want       time.Duration
	}{
		// ⌈0.99·150⌉ = 149: the 149th observation is slow.
		{"p99 of 148 fast + 2 slow", 148, 2, 0.99, slowBound},
		// 0.99·100 = 99 exactly: the 99th observation is fast.
		{"p99 of 99 fast + 1 slow", 99, 1, 0.99, fastBound},
		{"p99 of 98 fast + 2 slow", 98, 2, 0.99, slowBound},
		// 0.07·100 evaluates to 7.000000000000001; the rank is 7.
		{"p7 of 7 fast + 93 slow", 7, 93, 0.07, fastBound},
		{"p7 of 6 fast + 94 slow", 6, 94, 0.07, slowBound},
		// ⌈0.5·3⌉ = 2.
		{"p50 of 1 fast + 2 slow", 1, 2, 0.5, slowBound},
		{"p50 of 2 fast + 1 slow", 2, 1, 0.5, fastBound},
		{"p100 of 9 fast + 1 slow", 9, 1, 1, slowBound},
		{"p0 clamps to the first observation", 1, 9, 0, fastBound},
	} {
		var h Hist
		for i := 0; i < tc.fast; i++ {
			h.Observe(fast)
		}
		for i := 0; i < tc.slow; i++ {
			h.Observe(slow)
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}
