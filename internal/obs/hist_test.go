package obs

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("fresh histogram not empty: count=%d sum=%d", h.Count(), h.Sum())
	}
	h.Observe(1000)
	h.Observe(2000)
	h.Observe(3000)
	if h.Count() != 3 || h.Sum() != 6000 {
		t.Fatalf("count=%d sum=%d, want 3/6000", h.Count(), h.Sum())
	}
	if h.Max() != 3000 {
		t.Fatalf("max=%d, want 3000", h.Max())
	}
}

// TestHistogramQuantileAccuracy checks interpolated quantiles against
// exact percentiles of the recorded sample: every estimate must land
// within the width of the bucket holding the exact value.
func TestHistogramQuantileAccuracy(t *testing.T) {
	bounds := DurationBuckets()
	h := NewHistogram(bounds)
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, 10000)
	for i := range vals {
		// Log-uniform over ~10µs..1s, the histogram's natural range.
		v := int64(10_000 * (1 + rng.Float64()*100_000))
		vals[i] = v
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		// The estimate must fall in (or adjacent to) the exact value's
		// bucket: error bounded by that bucket's width.
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= exact })
		var lo, hi int64
		if i == 0 {
			lo, hi = 0, bounds[0]
		} else if i == len(bounds) {
			lo, hi = bounds[len(bounds)-1], h.Max()
		} else {
			lo, hi = bounds[i-1], bounds[i]
		}
		width := hi - lo
		if got < lo-width || got > hi+width {
			t.Errorf("q%.2f = %d, exact %d, want within bucket [%d,%d] ± %d", q, got, exact, lo, hi, width)
		}
	}
}

func TestHistogramQuantileSingleValue(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	h.Observe(123456)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 123456 {
			t.Errorf("single-value q%.2f = %d, want 123456 (clamped to observed range)", q, got)
		}
	}
	var empty *Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %d, want 0", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]int64{10, 20})
	h.Observe(1_000_000) // beyond the last bound
	if h.Count() != 1 {
		t.Fatalf("count=%d, want 1", h.Count())
	}
	if got := h.Quantile(0.99); got != 1_000_000 {
		t.Errorf("overflow quantile = %d, want the recorded max 1000000", got)
	}
}

// TestHistogramSnapshotDelta checks Sub + snapshot Quantile: the
// quantiles of a delta window reflect only the samples recorded inside
// it, unpolluted by history.
func TestHistogramSnapshotDelta(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	for i := 0; i < 1000; i++ {
		h.Observe(int64(20 * time.Microsecond)) // old regime: fast
	}
	prev := h.Snapshot()
	for i := 0; i < 100; i++ {
		h.Observe(int64(80 * time.Millisecond)) // new regime: slow
	}
	delta := h.Snapshot().Sub(prev)
	if delta.Count != 100 {
		t.Fatalf("delta count=%d, want 100", delta.Count)
	}
	p50 := delta.Quantile(0.5)
	if p50 < int64(20*time.Millisecond) {
		t.Errorf("delta p50=%v still dominated by pre-window samples", time.Duration(p50))
	}
	if full := h.Quantile(0.5); full > int64(time.Millisecond) {
		t.Errorf("full-history p50=%v should stay in the fast regime (1000 fast vs 100 slow)", time.Duration(full))
	}
	// Mismatched snapshots yield a zero value, not a panic.
	if z := delta.Sub(NewHistogram([]int64{1}).Snapshot()); z.Count != 0 {
		t.Errorf("mismatched Sub count=%d, want 0", z.Count)
	}
}

func TestHistogramRegistry(t *testing.T) {
	reg := NewRegistry(0)
	h1 := reg.Histogram("x.lat", DurationBuckets())
	h2 := reg.Histogram("x.lat", DurationBuckets())
	if h1 != h2 {
		t.Fatal("Histogram did not return the existing histogram for the same name")
	}
	if reg.FindHistogram("x.lat") != h1 {
		t.Fatal("FindHistogram missed a registered histogram")
	}
	if reg.FindHistogram("nope") != nil {
		t.Fatal("FindHistogram invented a histogram")
	}
}

// TestHistogramObserveAllocs enforces the hot-path contract: recording
// into a live histogram allocates nothing, and so do the nil-receiver
// no-ops the disabled service path compiles down to.
func TestHistogramObserveAllocs(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(123456)
		h.ObserveDuration(42 * time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v per record, want 0", allocs)
	}
	var nilH *Histogram
	allocs = testing.AllocsPerRun(1000, func() {
		nilH.Observe(1)
		nilH.ObserveDuration(time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("nil-histogram record allocates %v, want 0", allocs)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 10000; i++ {
				h.Observe(int64(g*10000 + i + 1))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if h.Count() != 40000 {
		t.Fatalf("concurrent count=%d, want 40000", h.Count())
	}
	if h.Max() != 40000 {
		t.Fatalf("concurrent max=%d, want 40000", h.Max())
	}
}
