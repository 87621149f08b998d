package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBucket is the timeline bucket width used when a Registry is
// built with a zero bucket.
const DefaultBucket = 100 * time.Millisecond

// Registry is a metrics registry: named counters (monotonic totals),
// gauges (last-value), series (sampled (t, v) points, e.g. queue
// depths), and timelines (time-bucketed accumulators, e.g. ring bytes
// per 100 ms of virtual time — the raw material of a time-resolved
// Figure 4.2). All methods are safe for concurrent use. Counters and
// gauges are atomics the registry's lock only finds: a hot path resolves
// one once (CounterHandle, GaugeHandle) and updates it without the lock.
type Registry struct {
	mu         sync.Mutex
	bucket     time.Duration
	counters   map[string]*atomic.Int64
	gauges     map[string]*Gauge
	series     map[string]*Series
	timelines  map[string]*Timeline
	histograms map[string]*Histogram
}

// NewRegistry returns a registry whose timelines bucket time into
// widths of bucket (DefaultBucket when zero).
func NewRegistry(bucket time.Duration) *Registry {
	if bucket <= 0 {
		bucket = DefaultBucket
	}
	return &Registry{
		bucket:    bucket,
		counters:  map[string]*atomic.Int64{},
		gauges:    map[string]*Gauge{},
		series:    map[string]*Series{},
		timelines: map[string]*Timeline{},
	}
}

// Bucket returns the timeline bucket width.
func (r *Registry) Bucket() time.Duration { return r.bucket }

// Inc adds delta to the named counter.
func (r *Registry) Inc(name string, delta int64) {
	r.CounterHandle(name).Add(delta)
}

// CounterHandle returns the named counter, creating it at zero: adding to
// it is Inc without the registry's lock, for a site that resolves the
// handle once. On a nil registry it returns a counter nobody reads.
func (r *Registry) CounterHandle(name string) *atomic.Int64 {
	if r == nil {
		return new(atomic.Int64)
	}
	return lookup(&r.mu, r.counters, name, true)
}

// Counter returns the named counter's value (0 when absent).
func (r *Registry) Counter(name string) int64 {
	if c := lookup(&r.mu, r.counters, name, false); c != nil {
		return c.Load()
	}
	return 0
}

// Gauge is one registry gauge, set without the registry's lock.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

func (g *Gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeHandle is CounterHandle for the named gauge.
func (r *Registry) GaugeHandle(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	return lookup(&r.mu, r.gauges, name, true)
}

// SetGauge records the named gauge's current value.
func (r *Registry) SetGauge(name string, v float64) {
	r.GaugeHandle(name).Set(v)
}

// Gauge returns the named gauge and whether it exists.
func (r *Registry) Gauge(name string) (float64, bool) {
	if g := lookup(&r.mu, r.gauges, name, false); g != nil {
		return g.value(), true
	}
	return 0, false
}

// lookup finds the named handle in m under mu, creating it if create.
func lookup[T any](mu *sync.Mutex, m map[string]*T, name string, create bool) *T {
	mu.Lock()
	defer mu.Unlock()
	h := m[name]
	if h == nil && create {
		h = new(T)
		m[name] = h
	}
	return h
}

// Add accumulates v into the named timeline's bucket at time ts.
func (r *Registry) Add(name string, ts time.Duration, v float64) {
	r.mu.Lock()
	r.timelineLocked(name).Add(ts, v)
	r.mu.Unlock()
}

// AddPair is two Adds at one instant under one acquisition of the
// registry lock, for a hot path that closes two meters together.
func (r *Registry) AddPair(ts time.Duration, nameA string, a float64, nameB string, b float64) {
	r.mu.Lock()
	r.timelineLocked(nameA).Add(ts, a)
	r.timelineLocked(nameB).Add(ts, b)
	r.mu.Unlock()
}

func (r *Registry) timelineLocked(name string) *Timeline {
	tl, ok := r.timelines[name]
	if !ok {
		tl = &Timeline{Bucket: r.bucket}
		r.timelines[name] = tl
	}
	return tl
}

// AddBusy spreads a busy interval of duration d starting at start
// across the named timeline's buckets, charging each bucket its
// overlap in microseconds. Device busy timelines recorded this way
// divide cleanly by (bucket width × servers) into utilization even
// when one service interval spans several buckets, where a point
// charge would pile the whole interval into its first bucket.
func (r *Registry) AddBusy(name string, start, d time.Duration) {
	if d <= 0 {
		return
	}
	if start < 0 {
		start = 0
	}
	r.mu.Lock()
	tl := r.timelineLocked(name)
	end := start + d
	for t := start; t < end; {
		next := (t/tl.Bucket + 1) * tl.Bucket
		if next > end {
			next = end
		}
		tl.Add(t, float64((next - t).Microseconds()))
		t = next
	}
	r.mu.Unlock()
}

// Timeline returns the named timeline, or nil. The returned value is
// live: read it only after the producing run has completed.
func (r *Registry) Timeline(name string) *Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timelines[name]
}

// Sample appends a (ts, v) point to the named series.
func (r *Registry) Sample(name string, ts time.Duration, v float64) {
	r.mu.Lock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	s.T = append(s.T, ts)
	s.V = append(s.V, v)
	r.mu.Unlock()
}

// Series returns the named sampled series, or nil. Like Timeline, the
// returned value is live.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[name]
}

// Series is a sampled metric: parallel (time, value) slices in
// recording order.
type Series struct {
	T []time.Duration
	V []float64
}

// Timeline is a time-bucketed accumulator: Vals[i] is the sum of
// values recorded with Bucket*i <= ts < Bucket*(i+1).
type Timeline struct {
	Bucket time.Duration
	Vals   []float64
}

// Add accumulates v into the bucket containing ts.
func (t *Timeline) Add(ts time.Duration, v float64) {
	if ts < 0 {
		ts = 0
	}
	idx := int(ts / t.Bucket)
	for len(t.Vals) <= idx {
		t.Vals = append(t.Vals, 0)
	}
	t.Vals[idx] += v
}

// Integral returns the sum over all buckets — for a bytes timeline,
// the run-total byte count.
func (t *Timeline) Integral() float64 {
	var sum float64
	for _, v := range t.Vals {
		sum += v
	}
	return sum
}

// Rate returns bucket i's value expressed per second (for a bytes
// timeline: bytes/sec; multiply by 8e-6 for Mbps).
func (t *Timeline) Rate(i int) float64 {
	if i < 0 || i >= len(t.Vals) {
		return 0
	}
	return t.Vals[i] / t.Bucket.Seconds()
}

// metricLine is the JSONL export schema: one line per metric.
type metricLine struct {
	Metric   string       `json:"metric"`
	Type     string       `json:"type"`
	Value    *float64     `json:"value,omitempty"`
	BucketUS int64        `json:"bucket_us,omitempty"`
	Points   [][2]float64 `json:"points,omitempty"`
	// Count, Sum, and Max summarize a histogram; its Points are
	// [upper_bound, bucket_count] pairs, overflow bound -1.
	Count *int64 `json:"count,omitempty"`
	Sum   *int64 `json:"sum,omitempty"`
	Max   *int64 `json:"max,omitempty"`
}

// WriteJSONL exports every metric as one JSON line, in sorted name
// order within each type (counters, then gauges, then series, then
// timelines). Timeline and series points are [t_us, value] pairs.
func (r *Registry) WriteJSONL(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	emit := func(l metricLine) error {
		b, err := json.Marshal(l)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", b)
		return err
	}
	for _, name := range sortedKeys(r.counters) {
		v := float64(r.counters[name].Load())
		if err := emit(metricLine{Metric: name, Type: "counter", Value: &v}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.gauges) {
		v := r.gauges[name].value()
		if err := emit(metricLine{Metric: name, Type: "gauge", Value: &v}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.series) {
		s := r.series[name]
		pts := make([][2]float64, len(s.T))
		for i := range s.T {
			pts[i] = [2]float64{float64(s.T[i].Microseconds()), s.V[i]}
		}
		if err := emit(metricLine{Metric: name, Type: "series", Points: pts}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.timelines) {
		tl := r.timelines[name]
		pts := make([][2]float64, len(tl.Vals))
		for i, v := range tl.Vals {
			pts[i] = [2]float64{float64(time.Duration(i) * tl.Bucket / time.Microsecond), v}
		}
		if err := emit(metricLine{
			Metric: name, Type: "timeline",
			BucketUS: tl.Bucket.Microseconds(), Points: pts,
		}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.histograms) {
		s := r.histograms[name].Snapshot()
		pts := make([][2]float64, 0, len(s.Counts))
		for i, c := range s.Counts {
			bound := float64(-1)
			if i < len(s.Bounds) {
				bound = float64(s.Bounds[i])
			}
			pts = append(pts, [2]float64{bound, float64(c)})
		}
		if err := emit(metricLine{
			Metric: name, Type: "histogram", Points: pts,
			Count: &s.Count, Sum: &s.Sum, Max: &s.Max,
		}); err != nil {
			return err
		}
	}
	return nil
}
