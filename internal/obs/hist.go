package obs

import (
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency/size histogram. The bucket
// layout is chosen at construction and never changes, so the record
// path is a binary search plus a handful of atomic adds — no locks, no
// allocations. Quantile estimates interpolate linearly inside the
// containing bucket (the overflow bucket uses the tracked maximum), so
// their error is bounded by the bucket width at the quantile.
//
// Histograms live in a Registry (Registry.Histogram); instrumentation
// sites resolve the pointer once at setup and call Observe on the hot
// path.
type Histogram struct {
	// bounds are the ascending inclusive upper bounds of the buckets;
	// counts has len(bounds)+1 entries, the last being the overflow
	// (+Inf) bucket.
	bounds []int64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64 // stored negated so zero means "unset"
}

// NewHistogram returns a histogram over the given ascending inclusive
// upper bounds. The bounds slice is not copied; callers must not
// mutate it.
func NewHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// DurationBuckets is the standard latency layout: exponential
// (doubling) bounds from 10µs to ~5.6min, 26 buckets plus overflow.
// Expressed in nanoseconds, matching Observe(d.Nanoseconds()).
func DurationBuckets() []int64 {
	b := make([]int64, 26)
	v := int64(10 * time.Microsecond)
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// DepthBuckets is the standard queue-depth layout: 0, 1, 2, 4, ...,
// 4096 plus overflow.
func DepthBuckets() []int64 {
	b := []int64{0}
	for v := int64(1); v <= 4096; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Observe records one value. Safe for concurrent use; performs no
// allocation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v (the overflow bucket when
	// none is).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.min.Load()
		if m != 0 && -m <= v || h.min.CompareAndSwap(m, -v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the recorded
// values by linear interpolation inside the containing bucket. The
// overflow bucket interpolates toward the tracked maximum, and every
// estimate is clamped to [min, max], so a single-value histogram
// reports that value at every quantile.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			var lo int64
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max.Load()
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(c)
			est := lo + int64(frac*float64(hi-lo))
			return h.clamp(est)
		}
		cum += c
	}
	return h.clamp(h.max.Load())
}

func (h *Histogram) clamp(v int64) int64 {
	if m := h.max.Load(); v > m {
		v = m
	}
	if nm := h.min.Load(); nm != 0 && v < -nm {
		v = -nm
	}
	return v
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts[i] is the
	// per-bucket (non-cumulative) count, with Counts[len(Bounds)] the
	// overflow bucket.
	Bounds []int64
	Counts []int64
	Count  int64
	Sum    int64
	Max    int64
}

// Snapshot returns a copy of the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Sub returns the per-bucket difference s - prev, for turning two
// cumulative snapshots of one live histogram into the distribution of
// just the samples recorded between them (per-interval quantiles,
// autoscaler reaction windows). The snapshots must come from the same
// histogram (same layout); Sub returns a zero snapshot otherwise.
// Negative differences clamp to zero.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(s.Bounds) != len(prev.Bounds) || len(s.Counts) != len(prev.Counts) {
		return HistogramSnapshot{}
	}
	d := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Count:  max(0, s.Count-prev.Count),
		Sum:    max(0, s.Sum-prev.Sum),
		Max:    s.Max,
	}
	for i := range s.Counts {
		d.Counts[i] = max(0, s.Counts[i]-prev.Counts[i])
	}
	return d
}

// Quantile estimates the q-th quantile of a snapshot by the same
// linear interpolation the live histogram uses (the overflow bucket
// interpolates toward Max). It works on Sub deltas too, where the live
// histogram's own Quantile would mix in every older sample.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			var lo int64
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < hi {
				hi = s.Bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(c)
			v := lo + int64(frac*float64(hi-lo))
			if v > s.Max && s.Max > 0 {
				v = s.Max
			}
			return v
		}
		cum += c
	}
	return s.Max
}

// Histogram returns the named histogram, creating it with the given
// bucket layout on first use. Asking for an existing histogram with a
// different layout returns the existing one (the first layout wins);
// instrumentation sites resolve the pointer once and record lock-free
// thereafter.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = map[string]*Histogram{}
	}
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// FindHistogram returns the named histogram, or nil when it was never
// created.
func (r *Registry) FindHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histograms[name]
}
