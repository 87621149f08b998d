package loadgen

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Profile is one declarative load shape: a sequence of phases replayed
// against a server, each with its own arrival pattern, query mix,
// session count, and SLO. Durations inside a profile are in simulated
// time; replay divides them by the time scale, while rates (qps) are
// already per wall second of replay — so a 24h profile at scale 1440
// plays in about a minute at exactly the offered load it declares.
type Profile struct {
	Name string
	// Seed drives every random choice (arrival times, query mix), so a
	// profile replays the same schedule on every run. Default 1.
	Seed int64
	// TimeScale compresses simulated time: 1440 replays a day in a
	// minute. Default 1; the CLI's -time-scale flag overrides it.
	TimeScale float64
	// Interval is the timeline resolution in simulated time: one row of
	// offered/completed QPS, quantiles, and SLO verdicts per interval.
	// Default 30m.
	Interval time.Duration
	// Grace is how many intervals at the start of each phase are exempt
	// from SLO evaluation, giving control loops (autoscaler, pool
	// drain) their reaction time. Default 1.
	Grace int
	// Phases play in order; the profile ends after the last.
	Phases []Phase
	// Events fire once at their simulated offset from profile start.
	Events []EventSpec
	// Autoscale, when present, is the runner-pool policy the CLI
	// applies when autoscaling is requested.
	Autoscale *AutoscalePolicy
}

// Phase is one contiguous stretch of the simulated day.
type Phase struct {
	Name     string
	Duration time.Duration // simulated
	// Pattern shapes the arrival rate across the phase: "steady" (QPS
	// throughout), "ramp" (QPS to QPSEnd linearly), "burst" (QPS
	// baseline plus PeakQPS on top during periodic windows), "diurnal"
	// (sinusoid from QPS up to PeakQPS and back).
	Pattern    string
	QPS        float64
	QPSEnd     float64       // ramp target
	PeakQPS    float64       // burst/diurnal peak
	BurstEvery time.Duration // simulated period between burst windows
	BurstLen   time.Duration // simulated burst window length
	// Sessions is the number of concurrent client sessions offering
	// this phase's load. Default 8.
	Sessions int
	// WriteFraction is the probability an arrival is a write (append or
	// delete) instead of a read from the mix. Default 0.
	WriteFraction float64
	// Mix weights the read classes; normalized at decode. Default
	// {point: 0.6, join: 0.3, heavy: 0.1}.
	Mix Mix
	// SLO, when non-nil, is evaluated per interval against this phase.
	SLO *SLO
}

// Mix weights the read-query classes over workload.QueryTexts():
// point restricts, single joins, and multi-join heavies.
type Mix struct {
	Point, Join, Heavy float64
}

// SLO bounds one phase's per-interval service quality. Zero duration
// quantile bounds and negative rate bounds are unchecked.
type SLO struct {
	P50, P95, P99 time.Duration
	// ShedRate bounds (shed + client-dropped) / offered.
	ShedRate float64
	// ErrorRate bounds errors / offered.
	ErrorRate float64
}

// EventSpec is one scheduled disturbance.
type EventSpec struct {
	At   time.Duration // simulated offset from profile start
	Kind string        // "maintenance", "slowdown", "bulk_append"
	// Slowdown: every query execution is delayed by Delay for Duration
	// of simulated time — the degraded-node fault.
	Duration time.Duration
	Delay    time.Duration
	// Bulk append: Count append queries into Relation.
	Relation string
	Count    int
}

// AutoscalePolicy mirrors sched.AutoscaleConfig in profile form; the
// CLI translates it when autoscaling is enabled. Zero fields use the
// scheduler's defaults.
type AutoscalePolicy struct {
	Min, Max  int
	Interval  time.Duration
	HighDepth float64
	HighWait  time.Duration
	LowUtil   float64
	Hold      int
	Cooldown  time.Duration
}

// Rate returns the offered arrival rate (queries per wall second) at
// simulated offset t into the phase.
func (ph *Phase) Rate(t time.Duration) float64 {
	switch ph.Pattern {
	case "ramp":
		if ph.Duration <= 0 {
			return ph.QPS
		}
		f := float64(t) / float64(ph.Duration)
		return ph.QPS + (ph.QPSEnd-ph.QPS)*f
	case "burst":
		if ph.BurstEvery > 0 && t%ph.BurstEvery < ph.BurstLen {
			return ph.QPS + ph.PeakQPS
		}
		return ph.QPS
	case "diurnal":
		if ph.Duration <= 0 {
			return ph.QPS
		}
		f := float64(t) / float64(ph.Duration)
		return ph.QPS + (ph.PeakQPS-ph.QPS)*(1-math.Cos(2*math.Pi*f))/2
	default: // steady
		return ph.QPS
	}
}

// MaxRate returns an upper bound on Rate over the phase, for thinning.
func (ph *Phase) MaxRate() float64 {
	m := ph.QPS
	switch ph.Pattern {
	case "ramp":
		m = math.Max(ph.QPS, ph.QPSEnd)
	case "burst":
		m = ph.QPS + ph.PeakQPS
	case "diurnal":
		m = math.Max(ph.QPS, ph.PeakQPS)
	}
	return m
}

// TotalDuration returns the profile's simulated length.
func (p *Profile) TotalDuration() time.Duration {
	var d time.Duration
	for i := range p.Phases {
		d += p.Phases[i].Duration
	}
	return d
}

// PhaseAt returns the phase covering simulated offset t and t's offset
// into it. Past the end it returns the last phase.
func (p *Profile) PhaseAt(t time.Duration) (int, *Phase, time.Duration) {
	off := t
	for i := range p.Phases {
		if off < p.Phases[i].Duration {
			return i, &p.Phases[i], off
		}
		off -= p.Phases[i].Duration
	}
	last := len(p.Phases) - 1
	return last, &p.Phases[last], p.Phases[last].Duration
}

// ParseProfile decodes and validates a YAML load profile.
func ParseProfile(src []byte) (*Profile, error) {
	v, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("profile: top level must be a map")
	}
	d := &decoder{}
	p := &Profile{
		Name:      d.str(m, "name", "unnamed"),
		Seed:      d.int64(m, "seed", 1),
		TimeScale: d.float(m, "time_scale", 1),
		Interval:  d.dur(m, "interval", 30*time.Minute),
		Grace:     int(d.int64(m, "grace", 1)),
	}
	for i, pv := range d.list(m, "phases") {
		pm, ok := pv.(map[string]any)
		if !ok {
			d.errf("phases[%d]: must be a map", i)
			continue
		}
		ph := Phase{
			Name:          d.str(pm, "name", fmt.Sprintf("phase%d", i)),
			Duration:      d.dur(pm, "duration", 0),
			Pattern:       d.str(pm, "pattern", "steady"),
			QPS:           d.float(pm, "qps", 0),
			QPSEnd:        d.float(pm, "qps_end", 0),
			PeakQPS:       d.float(pm, "peak_qps", 0),
			BurstEvery:    d.dur(pm, "burst_every", 0),
			BurstLen:      d.dur(pm, "burst_len", 0),
			Sessions:      int(d.int64(pm, "sessions", 8)),
			WriteFraction: d.float(pm, "write_fraction", 0),
			Mix:           Mix{Point: 0.6, Join: 0.3, Heavy: 0.1},
		}
		if mm, found := pm["mix"].(map[string]any); found {
			ph.Mix = Mix{
				Point: d.float(mm, "point", 0),
				Join:  d.float(mm, "join", 0),
				Heavy: d.float(mm, "heavy", 0),
			}
		}
		if sm, found := pm["slo"].(map[string]any); found {
			ph.SLO = &SLO{
				P50:       d.dur(sm, "p50", 0),
				P95:       d.dur(sm, "p95", 0),
				P99:       d.dur(sm, "p99", 0),
				ShedRate:  d.float(sm, "shed_rate", -1),
				ErrorRate: d.float(sm, "error_rate", -1),
			}
		}
		d.validatePhase(i, &ph)
		p.Phases = append(p.Phases, ph)
	}
	if len(p.Phases) == 0 {
		d.errf("profile needs at least one phase")
	}
	for i, ev := range d.list(m, "events") {
		em, ok := ev.(map[string]any)
		if !ok {
			d.errf("events[%d]: must be a map", i)
			continue
		}
		e := EventSpec{
			At:       d.dur(em, "at", 0),
			Kind:     d.str(em, "kind", ""),
			Duration: d.dur(em, "duration", 10*time.Minute),
			Delay:    d.dur(em, "delay", 5*time.Millisecond),
			Relation: d.str(em, "relation", "r1"),
			Count:    int(d.int64(em, "count", 5)),
		}
		switch e.Kind {
		case "maintenance", "slowdown", "bulk_append":
		default:
			d.errf("events[%d]: unknown kind %q (want maintenance, slowdown, or bulk_append)", i, e.Kind)
		}
		p.Events = append(p.Events, e)
	}
	if am, found := m["autoscale"].(map[string]any); found {
		p.Autoscale = &AutoscalePolicy{
			Min:       int(d.int64(am, "min", 0)),
			Max:       int(d.int64(am, "max", 0)),
			Interval:  d.dur(am, "interval", 0),
			HighDepth: d.float(am, "high_depth", 0),
			HighWait:  d.dur(am, "high_wait", 0),
			LowUtil:   d.float(am, "low_util", 0),
			Hold:      int(d.int64(am, "hold", 0)),
			Cooldown:  d.dur(am, "cooldown", 0),
		}
	}
	if p.TimeScale <= 0 {
		d.errf("time_scale must be positive")
	}
	if p.Interval <= 0 {
		d.errf("interval must be positive")
	}
	if err := d.err(); err != nil {
		return nil, err
	}
	return p, nil
}

func (d *decoder) validatePhase(i int, ph *Phase) {
	if ph.Duration <= 0 {
		d.errf("phases[%d] (%s): duration must be positive", i, ph.Name)
	}
	if ph.QPS < 0 {
		d.errf("phases[%d] (%s): qps must be non-negative", i, ph.Name)
	}
	switch ph.Pattern {
	case "steady":
	case "ramp":
		if ph.QPSEnd <= 0 {
			d.errf("phases[%d] (%s): ramp needs qps_end", i, ph.Name)
		}
	case "burst":
		if ph.PeakQPS <= 0 || ph.BurstEvery <= 0 || ph.BurstLen <= 0 {
			d.errf("phases[%d] (%s): burst needs peak_qps, burst_every, and burst_len", i, ph.Name)
		}
	case "diurnal":
		if ph.PeakQPS <= 0 {
			d.errf("phases[%d] (%s): diurnal needs peak_qps", i, ph.Name)
		}
	default:
		d.errf("phases[%d] (%s): unknown pattern %q", i, ph.Name, ph.Pattern)
	}
	if ph.Sessions <= 0 {
		d.errf("phases[%d] (%s): sessions must be positive", i, ph.Name)
	}
	if ph.WriteFraction < 0 || ph.WriteFraction > 1 {
		d.errf("phases[%d] (%s): write_fraction must be in [0,1]", i, ph.Name)
	}
	if w := ph.Mix.Point + ph.Mix.Join + ph.Mix.Heavy; w <= 0 {
		d.errf("phases[%d] (%s): mix weights must sum to a positive value", i, ph.Name)
	}
}

// decoder accumulates type-coercion errors across a whole profile, so
// one parse reports every problem at once.
type decoder struct {
	errs []string
}

func (d *decoder) errf(format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

func (d *decoder) err() error {
	if len(d.errs) == 0 {
		return nil
	}
	msg := d.errs[0]
	for _, e := range d.errs[1:] {
		msg += "; " + e
	}
	return fmt.Errorf("profile: %s", msg)
}

func (d *decoder) str(m map[string]any, key, def string) string {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.errf("%s: expected a string", key)
		return def
	}
	return s
}

func (d *decoder) float(m map[string]any, key string, def float64) float64 {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.errf("%s: expected a number", key)
		return def
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.errf("%s: bad number %q", key, s)
		return def
	}
	return f
}

func (d *decoder) int64(m map[string]any, key string, def int64) int64 {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.errf("%s: expected an integer", key)
		return def
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d.errf("%s: bad integer %q", key, s)
		return def
	}
	return n
}

func (d *decoder) dur(m map[string]any, key string, def time.Duration) time.Duration {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.errf("%s: expected a duration", key)
		return def
	}
	dur, err := time.ParseDuration(s)
	if err != nil {
		d.errf("%s: bad duration %q", key, s)
		return def
	}
	return dur
}

func (d *decoder) list(m map[string]any, key string) []any {
	v, ok := m[key]
	if !ok || v == nil {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		d.errf("%s: expected a list", key)
		return nil
	}
	return l
}
